"""FCIDUMP parsing, active-space reduction, and fermion-to-qubit mapping."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccvqe import (
    ElectronIntegrals,
    FcidumpError,
    FermionOperator,
    PauliString,
    build_active_hamiltonian,
    cas_reduce,
    default_window,
    exact_ground,
    expectation,
    hf_bitstring,
    map_operator,
    normalize_mapping,
    occupation_decoder,
    parse_fcidump,
    prepare_basis_state,
    uccsd_excitations,
    uccsd_generator_paulis,
)
from qccvqe import chem

import reference
from test_pauli import PROPERTY

SAMPLE = """\
 &FCI NORB=3,NELEC=2,MS2=0,
  ORBSYM=1,1,1,
  ISYM=1,
 &END
 0.5D0     1 1 1 1
 0.25      2 1 2 1
-0.125     3 3 2 2
-1.0       1 1 0 0
 0.75      2 1 0 0
 2.5       3 3 0 0
 0.33      1 0 0 0
 4.25      0 0 0 0
"""


class TestParse:
    def test_sample_round_trip(self):
        ints = parse_fcidump(SAMPLE)
        assert ints.n_orbitals == 3
        assert ints.n_electrons == 2
        assert ints.ms2 == 0
        assert ints.e_nuclear == 4.25
        assert ints.h1[0, 0] == -1.0
        assert ints.h1[1, 0] == 0.75 and ints.h1[0, 1] == 0.75
        assert ints.h1[2, 2] == 2.5
        assert ints.g2[0, 0, 0, 0] == 0.5
        # (21|21) populates all eight chemist-notation permutations
        for perm in ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)):
            assert ints.g2[perm] == 0.25
        assert ints.g2[2, 2, 1, 1] == -0.125
        assert ints.g2[1, 1, 2, 2] == -0.125

    def test_header_slash_terminator_and_stream(self):
        import io

        text = "&FCI NORB=1,NELEC=0 /\n 0.5 1 1 1 1\n"
        ints = parse_fcidump(io.StringIO(text))
        assert ints.n_orbitals == 1
        assert ints.g2[0, 0, 0, 0] == 0.5

    def test_orbital_energy_lines_are_ignored(self):
        ints = parse_fcidump(SAMPLE)
        # the '0.33 1 0 0 0' line must not leak into h1
        assert 0.33 not in np.abs(ints.h1)

    def test_errors_carry_line_numbers(self):
        bad = " &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1 1\n nonsense 1 1 1 1\n"
        with pytest.raises(FcidumpError) as err:
            parse_fcidump(bad)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_rejected_inputs(self):
        cases = [
            "",
            "NORB=2\n",
            " &FCI NELEC=2 &END\n",
            " &FCI NORB=2,NELEC=2\n 1.0 1 1 1 1\n",
            " &FCI NORB=0,NELEC=0 &END\n",
            " &FCI NORB=2,NELEC=5 &END\n",
            " &FCI NORB=x,NELEC=2 &END\n",
            " &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1\n",
            " &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1 x\n",
            " &FCI NORB=2,NELEC=2 &END\n 1.0 3 1 1 1\n",
            " &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1 0\n",
        ]
        for text in cases:
            with pytest.raises(FcidumpError):
                parse_fcidump(text)

    def test_integrals_validate_symmetry(self):
        h1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ElectronIntegrals(2, h1, np.zeros((2, 2, 2, 2)), 0.0, 2, 0)
        g2 = np.zeros((2, 2, 2, 2))
        g2[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ElectronIntegrals(2, np.zeros((2, 2)), g2, 0.0, 2, 0)


class TestActiveSpace:
    def test_default_window_follows_frozen_pairs(self):
        ints = parse_fcidump(SAMPLE)
        assert list(default_window(ints, 2, 2)) == [0, 1]
        ints6 = ElectronIntegrals(
            6, np.zeros((6, 6)), np.zeros((6,) * 4), 0.0, 6, 0
        )
        assert list(default_window(ints6, 4, 4)) == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            default_window(ints6, 3, 3)

    def test_full_window_is_identity_reduction(self):
        ints = parse_fcidump(SAMPLE)
        prob = cas_reduce(ints, range(3), 2)
        assert prob.e_inactive == 0.0
        assert np.array_equal(prob.f_inactive, ints.h1)
        assert np.array_equal(prob.g_active, ints.g2)
        assert prob.n_spin_orbitals == 6

    def test_window_validation(self):
        ints = parse_fcidump(SAMPLE)
        with pytest.raises(ValueError):
            cas_reduce(ints, [], 2)
        with pytest.raises(ValueError):
            cas_reduce(ints, [0, 0], 2)
        with pytest.raises(ValueError):
            cas_reduce(ints, [0, 7], 2)
        with pytest.raises(ValueError):
            cas_reduce(ints, [0, 1], 1)  # odd inactive electron count
        with pytest.raises(ValueError):
            cas_reduce(ints, [0, 2], 0)  # inactive orbital above the window

    def test_folding_matches_projected_determinant_space(self, fixtures_dir):
        # freezing one doubly occupied orbital of the six-site chain must
        # reproduce the full Hamiltonian restricted to determinants with
        # that orbital filled and the virtual orbital empty; the restricted
        # energy upper-bounds the unrestricted six-electron ground
        ints = parse_fcidump((fixtures_dir / "chain6_d1.00.fcidump").read_text())
        window = default_window(ints, 4, 4)
        assert list(window) == [1, 2, 3, 4]
        cas = cas_reduce(ints, window, 4)
        assert cas.e_inactive != 0.0
        h_cas = map_operator(build_active_hamiltonian(cas), "jordan_wigner")
        e_cas = exact_ground(
            h_cas,
            n_electrons=4,
            occupation_of=occupation_decoder("jw", h_cas.n_qubits),
        ).energy

        mat = reference.fermion_matrix(12, reference.integral_terms(ints))
        frozen_bits = 0b11  # both spins of spatial orbital 0
        virtual_bits = 0b11 << 10  # both spins of spatial orbital 5
        projected = [
            i
            for i in range(1 << 12)
            if i & frozen_bits == frozen_bits
            and i & virtual_bits == 0
            and i.bit_count() == 6
        ]
        block = mat[np.ix_(projected, projected)]
        e_projected = float(np.linalg.eigvalsh(block)[0])
        assert e_cas + cas.e_inactive == pytest.approx(e_projected, abs=1e-9)

        full_sector = [i for i in range(1 << 12) if i.bit_count() == 6]
        full_block = mat[np.ix_(full_sector, full_sector)]
        e_full = float(np.linalg.eigvalsh(full_block)[0])
        assert e_projected >= e_full - 1e-12


class TestFermionOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            FermionOperator(2, {((0, 1),): 1.0})
        with pytest.raises(ValueError):
            FermionOperator(2, {((5, 1), (0, 0)): 1.0})
        with pytest.raises(ValueError):
            FermionOperator(2, {((0, 2), (0, 0)): 1.0})
        with pytest.raises(ValueError):
            FermionOperator(2, {((0, 1), (0, 0)): math.nan})

    def test_build_matches_determinant_reference(self, dimer_problem):
        prob, h, _ = dimer_problem
        op = build_active_hamiltonian(prob)
        direct = reference.fermion_matrix(op.n_spin_orbitals, op.terms)
        assert np.allclose(reference.ham_matrix(h), direct, atol=1e-10)


class TestMappings:
    def test_number_operator_images(self):
        number0 = FermionOperator(4, {((0, 1), (0, 0)): 1.0})
        number1 = FermionOperator(4, {((1, 1), (1, 0)): 1.0})
        for mapping in ("jordan_wigner", "parity"):
            h0 = map_operator(number0, mapping)
            assert h0.coefficient(PauliString.from_label("IIII")) == pytest.approx(0.5)
            assert h0.coefficient(PauliString.from_label("ZIII")) == pytest.approx(-0.5)
        h1 = map_operator(number1, "jordan_wigner")
        assert h1.coefficient(PauliString.from_label("IZII")) == pytest.approx(-0.5)
        h1p = map_operator(number1, "parity")
        # occupation 1 is the XOR of parity qubits 0 and 1
        assert h1p.coefficient(PauliString.from_label("ZZII")) == pytest.approx(-0.5)

    def test_mapping_aliases(self):
        assert normalize_mapping(" JW ") == "jordan_wigner"
        assert normalize_mapping("Jordan-Wigner") == "jordan_wigner"
        assert normalize_mapping("parity") == "parity"
        with pytest.raises(ValueError):
            normalize_mapping("bravyi")

    def test_non_hermitian_operator_rejected(self):
        hopping = FermionOperator(2, {((0, 1), (1, 0)): 1.0})
        with pytest.raises(ValueError):
            map_operator(hopping, "jw")

    def test_spectra_agree_across_mappings(self, dimer_problem):
        prob, h_jw, _ = dimer_problem
        op = build_active_hamiltonian(prob)
        h_parity = map_operator(op, "parity")
        jw_vals = np.linalg.eigvalsh(reference.ham_matrix(h_jw))
        parity_vals = np.linalg.eigvalsh(reference.ham_matrix(h_parity))
        assert np.allclose(jw_vals, parity_vals, atol=1e-10)

    def test_parity_decoder_inverts_encoding(self):
        n = 5
        decoder = occupation_decoder("parity", n)
        for occ in range(1 << n):
            parity_bits = 0
            running = 0
            for j in range(n):
                running ^= (occ >> j) & 1
                parity_bits |= running << j
            decoded = decoder(np.array([parity_bits], dtype=np.uint64))
            assert int(decoded[0]) == occ
        jw = occupation_decoder("jordan_wigner", n)
        idx = np.arange(1 << n, dtype=np.uint64)
        assert np.array_equal(jw(idx), idx)

    def test_hf_bitstring_per_mapping(self):
        assert hf_bitstring(2, 4, "jordan_wigner") == "1100"
        assert hf_bitstring(2, 4, "parity") == "1000"
        assert hf_bitstring(0, 3, "jw") == "000"
        assert hf_bitstring(3, 6, "parity") == "101111"
        with pytest.raises(ValueError):
            hf_bitstring(5, 4, "jw")

    def test_hf_energy_is_mapping_independent(self, dimer_problem, load_problem):
        prob, h_jw, ref_jw = dimer_problem
        _, h_parity, ref_parity = load_problem(
            "dimer_d1.00.fcidump", 2, 2, mapping="parity"
        )
        e_jw = expectation(prepare_basis_state(4, ref_jw), h_jw)
        e_parity = expectation(prepare_basis_state(4, ref_parity), h_parity)
        assert e_jw == pytest.approx(e_parity, abs=1e-10)

    def test_sector_grounds_agree_across_mappings(self, dimer_problem, load_problem):
        _, h_jw, _ = dimer_problem
        _, h_parity, _ = load_problem("dimer_d1.00.fcidump", 2, 2, mapping="parity")
        e_jw = exact_ground(
            h_jw, n_electrons=2, occupation_of=occupation_decoder("jw", 4)
        ).energy
        e_parity = exact_ground(
            h_parity, n_electrons=2, occupation_of=occupation_decoder("parity", 4)
        ).energy
        assert e_jw == pytest.approx(e_parity, abs=1e-10)


def term_hex(h):
    return [(p.key(), c.hex()) for p, c in h.items()]


@st.composite
def fermion_operators(draw):
    """Number-conserving operators whose 0-, 2- and 4-ladder products interleave.

    Ladder operators within a product come in any order. Coefficients are
    mostly thirds, whose sums round differently in different orders, plus
    signed zeros and exactly cancelling values. The operator may be empty.
    """
    n = draw(st.integers(1, 4))  # few orbitals, so products share strings
    orbital = st.integers(0, n - 1)
    coeff = st.one_of(
        st.floats(-4.0, 4.0).map(lambda v: v / 3),
        st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
    )
    terms = {}
    for length in draw(st.lists(st.sampled_from([4, 0, 2]), max_size=10)):
        ops = [(draw(orbital), i % 2) for i in range(length)]
        terms[tuple(draw(st.permutations(ops)))] = draw(coeff)
    return FermionOperator(n, terms)


class TestArrayMap:
    """The array map equals the loop over the scalar `multiply` bit for bit."""

    @pytest.mark.parametrize("mapping", chem.MAPPINGS)
    def test_shipped_fixtures_match_loop(self, fixtures_dir, mapping):
        for path in sorted(fixtures_dir.glob("*.fcidump")):
            ints = parse_fcidump(path.read_text())
            prob = cas_reduce(ints, range(ints.n_orbitals), ints.n_electrons)
            op = build_active_hamiltonian(prob)
            expected = term_hex(reference.map_operator(op, mapping))
            assert term_hex(map_operator(op, mapping)) == expected, path.name

    @pytest.mark.parametrize("mapping", chem.MAPPINGS)
    @pytest.mark.parametrize("n_electrons, n_orbitals", [(2, 2), (4, 4)])
    def test_uccsd_generators_match_loop(self, n_electrons, n_orbitals, mapping):
        exc = uccsd_excitations(n_electrons, n_orbitals)
        ours = uccsd_generator_paulis(exc, 2 * n_orbitals, mapping)
        theirs = reference.generator_paulis(exc, 2 * n_orbitals, mapping)
        assert [[(p.key(), c.hex()) for p, c in e] for e in ours] == [
            [(p.key(), c.hex()) for p, c in e] for e in theirs
        ]

    @PROPERTY
    @given(fermion_operators(), st.sampled_from(chem.MAPPINGS))
    def test_random_operators_match_loop(self, op, mapping):
        x, z, w = chem._map_products(op, mapping)
        ours = [
            (key, c.real.hex(), c.imag.hex())
            for key, c in zip(zip(x.tolist(), z.tolist()), w.tolist())
        ]
        expected = sorted(
            (p.key(), c.real.hex(), c.imag.hex())
            for p, c in reference.map_products(op, mapping).items()
        )
        assert ours == expected

    def test_empty_operator_and_bare_scalar(self):
        assert len(map_operator(FermionOperator(4, {}), "jordan_wigner")) == 0
        scalar = map_operator(FermionOperator(4, {(): 1.5}), "parity")
        assert term_hex(scalar) == [((0, 0), (1.5).hex())]


class TestUccsd:
    def test_spin_conservation(self):
        exc = uccsd_excitations(4, 4)
        for a, m in exc.singles:
            assert a % 2 == m % 2
        for a, b, m, n in exc.doubles:
            assert a > b and m > n
            assert sorted((a % 2, b % 2)) == sorted((m % 2, n % 2))

    def test_counts_for_shipped_active_spaces(self):
        assert uccsd_excitations(2, 2).parameter_count == 3
        assert uccsd_excitations(4, 4).parameter_count == 26
        assert uccsd_excitations(6, 6).parameter_count == 117
        exc = uccsd_excitations(2, 2)
        assert len(exc.singles) == 2 and len(exc.doubles) == 1

    def test_empty_active_space(self):
        exc = uccsd_excitations(0, 2)
        assert exc.parameter_count == 0
        with pytest.raises(ValueError):
            uccsd_excitations(5, 2)

    def test_generators_are_anti_hermitian_images(self):
        exc = uccsd_excitations(2, 2)
        terms = uccsd_generator_paulis(exc, 4, "jordan_wigner")
        assert len(terms) == exc.parameter_count
        for (a, m), entry in zip(exc.singles, terms[: len(exc.singles)]):
            op_terms = {((m, 1), (a, 0)): 1.0, ((a, 1), (m, 0)): -1.0}
            direct = reference.fermion_matrix(4, op_terms)
            mapped = sum(
                c * reference.label_matrix(p.to_label()) for p, c in entry
            )
            assert np.allclose(direct, 1j * mapped, atol=1e-10)

    def test_double_excitation_rotations_compose_exactly(self):
        # the eight Pauli factors of one double excitation commute, so the
        # rotation product equals the exponential of the full generator
        exc = uccsd_excitations(2, 2)
        entry = uccsd_generator_paulis(exc, 4, "jordan_wigner")[-1]
        assert len(entry) == 8
        (a, b, m, n) = exc.doubles[0]
        op_terms = {
            ((m, 1), (n, 1), (b, 0), (a, 0)): 1.0,
            ((a, 1), (b, 1), (n, 0), (m, 0)): -1.0,
        }
        g_mat = reference.fermion_matrix(4, op_terms)
        t = 0.37
        expected = reference.expm(t * g_mat)
        u = np.eye(16, dtype=np.complex128)
        for p, c in entry:
            u = u @ reference.rotation_matrix(
                reference.label_matrix(p.to_label()), -2.0 * t * c
            )
        assert np.allclose(u, expected, atol=1e-10)
