"""FCIDUMP parsing, active-space reduction, and fermion-to-qubit mapping."""

import dataclasses
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

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
    exact_ground,
    expectation,
    hf_bitstring,
    map_operator,
    normalize_mapping,
    occupation_decoder,
    parse_fcidump,
    prepare_basis_state,
    sector_basis,
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
        # a multi-line header may end in a lone '/'
        ints = parse_fcidump(" &FCI NORB=2,\n NELEC=2,MS2=0,\n/\n 0.5 1 1 1 1\n-1.0 2 2 0 0\n")
        assert (ints.n_orbitals, ints.n_electrons) == (2, 2)
        assert ints.g2[0, 0, 0, 0] == 0.5 and ints.h1[1, 1] == -1.0

    @pytest.mark.parametrize("end", ["&end", "&End", "/"])
    def test_namelist_delimiters_in_any_case(self, fixtures_dir, end):
        text = (fixtures_dir / "dimer_d1.00.fcidump").read_text()
        shipped = parse_fcidump(text)
        assert " &END\n" in text
        ints = parse_fcidump(text.replace(" &END\n", f" {end}\n").replace("&FCI", "&fci"))
        assert (ints.n_orbitals, ints.n_electrons, ints.ms2) == (2, 2, 0)
        assert ints.e_nuclear == shipped.e_nuclear
        assert np.array_equal(ints.h1, shipped.h1) and np.array_equal(ints.g2, shipped.g2)

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
        # (text, message start, line); blank lines are skipped but still counted
        cases = [
            ("", "empty file", None),
            ("NORB=2\n", "expected '&FCI' namelist header", 1),
            ("\n\nNORB=2\n", "expected '&FCI' namelist header", 3),
            (" &FCI NELEC=2 &END\n", "namelist is missing NORB", None),
            (" &FCI NORB=2,NELEC=2\n 1.0 1 1 1 1\n",
             "namelist header never terminated by '&END' or '/'", None),
            (" &FCI NORB=0,NELEC=0 &END\n", "NORB must be in 1..128, got 0", None),
            (" &FCI NORB=2,NELEC=5 &END\n", "NELEC=5 impossible for NORB=2", None),
            (" &FCI NORB=x,NELEC=2 &END\n", "non-integer namelist value: invalid literal", None),
            (" &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1\n",
             "expected 'value i j k l', got 4 fields", 2),
            (" &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1 x\n", "non-integer index in", 2),
            (" &FCI NORB=2,NELEC=2 &END\n 1.0 3 1 1 1\n",
             "orbital index 3 out of range 0..2", 2),
            (" &FCI NORB=2,NELEC=2 &END\n 1.0 1 1 1 0\n", "partial zero indices", 2),
            (" &FCI NORB=2,NELEC=2 &END\n 1.0 0 2 0 0\n", "partial zero indices", 2),
        ]
        for text, message, line in cases:
            with pytest.raises(FcidumpError) as err:
                parse_fcidump(text)
            prefix = "" if line is None else f"line {line}: "
            assert str(err.value).startswith(prefix + message), text
            assert err.value.line == line, text

    def test_spin_must_fit_the_electron_count(self):
        # 2 S_z of NELEC electrons is at most NELEC and has its parity;
        # an absent MS2 is the lowest spin
        for nelec, ms2 in ((2, 1), (1, 0), (2, 4), (3, -5)):
            with pytest.raises(FcidumpError, match=f"MS2={ms2} impossible for NELEC={nelec}"):
                parse_fcidump(f" &FCI NORB=2,NELEC={nelec},MS2={ms2} &END\n")
        for nelec, ms2 in ((2, -2), (3, 3), (0, 0)):
            assert parse_fcidump(f" &FCI NORB=2,NELEC={nelec},MS2={ms2} &END\n").ms2 == ms2
        assert parse_fcidump(" &FCI NORB=2,NELEC=3 &END\n").ms2 == 1

    def test_header_only_file_has_zero_integrals(self):
        ints = parse_fcidump(" &FCI NORB=1,NELEC=0 &END")
        assert (ints.n_orbitals, ints.n_electrons, ints.ms2) == (1, 0, 0)
        assert ints.e_nuclear == 0.0
        assert not ints.h1.any() and not ints.g2.any()

    def test_conflicting_repeats_are_refused(self):
        header = " &FCI NORB=2,NELEC=2 &END\n"
        # one integral named twice, by the same or another of its index orders
        for first, second in (
            ("0.5 1 2 1 1", "0.6 2 1 1 1"),
            ("0.5 1 2 1 1", "0.6 1 1 1 2"),
            ("0.5 1 2 2 1", "0.6 2 1 1 2"),
            ("0.5 1 1 1 1", "0.6 1 1 1 1"),
            ("-1.0 1 2 0 0", "-1.5 2 1 0 0"),
            ("-1.0 1 1 0 0", "-1.5 1 1 0 0"),
            ("4.25 0 0 0 0", "4.5 0 0 0 0"),
        ):
            with pytest.raises(FcidumpError, match="conflicts with .* on line 2") as err:
                parse_fcidump(f"{header} {first}\n 0.1 2 2 2 2\n {second}\n")
            assert err.value.line == 4, (first, second)

    def test_equal_repeats_are_accepted(self):
        once = " &FCI NORB=2,NELEC=2 &END\n 0.5 1 2 1 1\n-1.0 1 2 0 0\n 4.25 0 0 0 0\n"
        twice = once + " 0.5 2 1 1 1\n-1.0 2 1 0 0\n 4.25 0 0 0 0\n 0.3 1 0 0 0\n 0.4 1 0 0 0\n"
        a, b = parse_fcidump(once), parse_fcidump(twice)
        assert np.array_equal(a.h1, b.h1) and np.array_equal(a.g2, b.g2)
        assert a.e_nuclear == b.e_nuclear == 4.25

    def test_integrals_validate_symmetry(self):
        h1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ElectronIntegrals(2, h1, np.zeros((2, 2, 2, 2)), 0.0, 2, 0)
        # each entry breaks one permutation and keeps the ones checked before it
        for index, perm in (
            ((0, 1, 0, 0), (1, 0, 2, 3)),
            ((0, 0, 0, 1), (0, 1, 3, 2)),
            ((0, 0, 1, 1), (2, 3, 0, 1)),
        ):
            g2 = np.zeros((2, 2, 2, 2))
            g2[index] = 1.0
            with pytest.raises(ValueError, match=re.escape(f"symmetry {perm}")):
                ElectronIntegrals(2, np.zeros((2, 2)), g2, 0.0, 2, 0)


def assert_same_problem(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


class TestActiveSpace:
    def test_default_window_follows_frozen_pairs(self):
        ints = parse_fcidump(SAMPLE)
        assert_same_problem(
            cas_reduce(ints, n_active_electrons=2, n_active_orbitals=2),
            cas_reduce(ints, [0, 1], 2),
        )
        # distinct orbital energies, so another window gives another problem
        ints6 = ElectronIntegrals(
            6, np.diag(np.arange(1.0, 7.0)), np.zeros((6,) * 4), 0.0, 6, 0
        )
        assert_same_problem(
            cas_reduce(ints6, n_active_electrons=4, n_active_orbitals=4),
            cas_reduce(ints6, [1, 2, 3, 4], 4),
        )
        with pytest.raises(ValueError):
            cas_reduce(ints6, n_active_electrons=3, n_active_orbitals=3)

    @pytest.mark.parametrize("mapping", chem.MAPPINGS)
    def test_orbital_count_names_the_window_after_the_frozen_pairs(self, fixtures_dir, mapping):
        # every (electrons, orbitals) request without a window reduces to the
        # window after the frozen pairs (by default, every orbital above them),
        # or is refused where that window is
        for path in sorted(fixtures_dir.glob("*.fcidump")):
            ints = parse_fcidump(path.read_text())
            for n_e in range(-1, ints.n_electrons + 2):
                frozen = ints.n_electrons - n_e
                for n_o in (None, *range(-1, ints.n_orbitals + 2)):
                    request = dict(n_active_electrons=n_e, n_active_orbitals=n_o)
                    try:
                        if frozen < 0 or frozen % 2:
                            raise ValueError("no whole number of frozen pairs")
                        start = frozen // 2
                        stop = ints.n_orbitals if n_o is None else start + n_o
                        expected = cas_reduce(ints, range(start, stop), n_e)
                    except ValueError:
                        with pytest.raises(ValueError):
                            cas_reduce(ints, **request)
                        continue
                    got = cas_reduce(ints, **request)
                    assert_same_problem(got, expected)
                    got_h, expected_h = (
                        map_operator(build_active_hamiltonian(p), mapping) for p in (got, expected)
                    )
                    assert term_hex(got_h) == term_hex(expected_h), (path.name, n_e, n_o)

    def test_counts_below_the_minimum_name_themselves(self):
        # in the words the CLI's manifest loader uses for the same counts
        ints = parse_fcidump(SAMPLE)
        with pytest.raises(ValueError, match="active_electrons must be >= 0, got -2"):
            cas_reduce(ints, n_active_electrons=-2)
        for n_o in (0, -2):
            with pytest.raises(ValueError, match=f"active_orbitals must be >= 1, got {n_o}"):
                cas_reduce(ints, n_active_orbitals=n_o)

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
        # a window must hold the orbital count given with it
        for n_o in (1, 3):
            with pytest.raises(ValueError, match="orbitals, not"):
                cas_reduce(ints, [0, 1], 2, n_active_orbitals=n_o)
        assert_same_problem(
            cas_reduce(ints, [0, 1], 2, n_active_orbitals=2), cas_reduce(ints, [0, 1], 2)
        )

    def test_folding_matches_projected_determinant_space(self, fixtures_dir):
        # freezing one doubly occupied orbital of the six-site chain must
        # reproduce the full Hamiltonian restricted to determinants with
        # that orbital filled and the virtual orbital empty; the restricted
        # energy upper-bounds the unrestricted six-electron ground
        ints = parse_fcidump((fixtures_dir / "chain6_d1.00.fcidump").read_text())
        cas = cas_reduce(ints, [1, 2, 3, 4], 4)
        assert cas.e_inactive != 0.0
        h_cas = map_operator(build_active_hamiltonian(cas), "jordan_wigner")
        e_cas = exact_ground(h_cas, sector_basis("jw", h_cas.n_qubits, 4)).energy

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

    def test_build_matches_the_loop(self, fixtures_dir):
        # every active space that cas_reduce accepts on every shipped file
        for path in sorted(fixtures_dir.glob("*.fcidump")):
            ints = parse_fcidump(path.read_text())
            for n_e in range(ints.n_electrons + 1):
                for n_o in (None, *range(1, ints.n_orbitals + 1)):
                    try:
                        prob = cas_reduce(ints, n_active_electrons=n_e, n_active_orbitals=n_o)
                    except ValueError:
                        continue
                    got = [(k, c.hex()) for k, c in build_active_hamiltonian(prob).terms.items()]
                    expected = [(k, float(c).hex()) for k, c
                                in reference.active_hamiltonian_terms(prob).items()]
                    assert got == expected, (path.name, n_e, n_o)

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
        e_jw = exact_ground(h_jw, sector_basis("jw", 4, 2)).energy
        e_parity = exact_ground(h_parity, sector_basis("parity", 4, 2)).energy
        assert e_jw == pytest.approx(e_parity, abs=1e-10)


class TestEncodingTable:
    """Each encoding's masks, encode and decode, against routes that read none of them."""

    @pytest.mark.parametrize("mapping", chem.MAPPINGS)
    @pytest.mark.parametrize(
        "name, n_electrons", [("dimer_d1.00.fcidump", 2), ("chain4_d1.00.fcidump", 4)]
    )
    def test_qubit_matrix_is_the_decoded_fermion_matrix(
        self, load_problem, name, n_electrons, mapping
    ):
        # entry (b, c) of the mapped operator is entry (decode b, decode c) of
        # the occupation-basis matrix built by direct ladder action
        prob, h, _ = load_problem(name, n_electrons, n_electrons, mapping)
        op = build_active_hamiltonian(prob)
        n = op.n_spin_orbitals
        occupations = occupation_decoder(mapping, n)(np.arange(1 << n)).astype(np.intp)
        direct = reference.fermion_matrix(n, op.terms)[np.ix_(occupations, occupations)]
        assert np.abs(reference.ham_matrix(h) - direct).max() <= 1e-12

    @pytest.mark.parametrize("mapping", chem.MAPPINGS)
    def test_encode_and_decode_invert_each_other(self, mapping):
        encoding = chem._ENCODINGS[mapping]
        for n in range(1, 11):
            mask = (1 << n) - 1
            idx = np.arange(1 << n, dtype=np.uint64)
            assert np.array_equal(encoding.encode(encoding.decode(idx, n), n) & mask, idx)
            assert np.array_equal(encoding.decode(encoding.encode(idx, n), n) & mask, idx)
            # on Python ints too, as hf_bitstring encodes
            ints = [encoding.decode(encoding.encode(i, n), n) & mask for i in range(1 << n)]
            assert ints == list(range(1 << n))

    def test_hf_bitstring_matches_the_prefix_loop(self):
        # parity qubit j is the running parity of occupations 0..j, at every
        # width up to 40 and every electron count
        for n in range(1, 41):
            for n_electrons in range(n + 1):
                occ = (1 << n_electrons) - 1
                bits = parity = 0
                for j in range(n):
                    parity ^= (occ >> j) & 1
                    bits |= parity << j
                for mapping, index in (("parity", bits), ("jordan_wigner", occ)):
                    label = "".join(str((index >> j) & 1) for j in range(n))
                    assert hf_bitstring(n_electrons, n, mapping) == label, (n, n_electrons)


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


class TestFixtures:
    def test_make_fixtures_regenerates_every_file(self, fixtures_dir, tmp_path):
        # the shipped fixtures are deterministic byte for byte, and the bench
        # builds its inputs from the same functions
        script = fixtures_dir.parent / "tools" / "make_fixtures.py"
        subprocess.run([sys.executable, str(script), str(tmp_path)], check=True, capture_output=True)
        made = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # a qcc run without --output-dir leaves its output directory here
        assert made == {p.name: p.read_bytes() for p in fixtures_dir.iterdir() if p.is_file()}

    def test_odd_electron_chain_parses(self, tmp_path):
        # the tool writes MS2 = NELEC mod 2, a header the parser accepts
        spec = importlib.util.spec_from_file_location(
            "make_fixtures", Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
        )
        model = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(model)
        h_mo, g_mo = model.to_orbital_basis(*model.site_model(3, 1.0, 0.8)[:2])
        path = tmp_path / "chain3.fcidump"
        model.write_fcidump(path, h_mo, g_mo, 1.0, 3)
        assert path.read_text().splitlines()[0] == " &FCI NORB=  3,NELEC= 3,MS2=1,"
        ints = parse_fcidump(path.read_text())
        assert (ints.n_electrons, ints.ms2) == (3, 1)
