"""Pauli-string algebra against dense-matrix references."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccvqe import (
    DEFAULT_PRUNE,
    PauliString,
    QccConfig,
    QubitHamiltonian,
    dress,
    dress_sequence,
    qcc_run,
    to_dense,
)
from qccvqe.pauli import HAMILTONIAN_MAX_QUBITS, _json

import reference
from reference import PhasedPauli, commutes, multiply

RNG_SEED = 20240817


def all_labels(n_qubits):
    return ["".join(s) for s in itertools.product("IXYZ", repeat=n_qubits)]


# Property tests draw the same examples on every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pauli_strings(draw, count):
    """`count` Pauli strings on one shared width of 1-4 qubits."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    return [PauliString(n, draw(mask), draw(mask)) for _ in range(count)]


@st.composite
def hamiltonian_and_generator(draw):
    (p,) = draw(pauli_strings(1))
    mask = st.integers(0, (1 << p.n_qubits) - 1)
    coeff = st.one_of(st.floats(0.01, 2.0), st.floats(-2.0, -0.01))
    terms = draw(st.dictionaries(st.tuples(mask, mask), coeff, min_size=1, max_size=8))
    h = QubitHamiltonian(
        p.n_qubits, {PauliString(p.n_qubits, x, z): c for (x, z), c in terms.items()}
    )
    return h, p


@st.composite
def dress_cases(draw):
    """A sum, a generator, an angle (sometimes exactly 0) and a prune that
    is 0, the default, or exactly the magnitude of one input term."""
    h, p = draw(hamiltonian_and_generator())
    tau = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    at_term = abs(draw(st.sampled_from(h.coeff.tolist())))
    return h, p, tau, draw(st.sampled_from([0.0, DEFAULT_PRUNE, at_term]))


def hexed(terms):
    """((x, z), float.hex(c)) pairs, in the given order."""
    return [(key, float.hex(c)) for key, c in terms]


def hexed_sum(h):
    return hexed((p.key(), c) for p, c in h.items())


class TestPauliString:
    def test_label_round_trip_exhaustive(self):
        for label in all_labels(2):
            assert PauliString.from_label(label).to_label() == label

    def test_label_orientation(self):
        # leftmost label letter is qubit 0, the least significant bit
        p = PauliString.from_label("XIZ")
        assert p.x_mask == 0b001
        assert p.z_mask == 0b100
        assert p.letter(0) == "X"
        assert p.letter(2) == "Z"

    def test_from_label_rejects_garbage(self):
        with pytest.raises(ValueError):
            PauliString.from_label("")
        with pytest.raises(ValueError):
            PauliString.from_label("XQZ")

    def test_mask_bounds_checked(self):
        with pytest.raises(ValueError):
            PauliString(2, x_mask=0b100)
        with pytest.raises(ValueError):
            PauliString(0)

    def test_flags_and_support(self):
        p = PauliString.from_label("XIYZ")
        assert not p.is_identity
        assert not p.is_diagonal
        assert p.support == 0b1101
        assert p.weight == 3
        assert PauliString.identity(4).is_identity
        assert PauliString.from_label("ZIZI").is_diagonal

    def test_canonical_matrix_form(self):
        # stored form must equal the textbook tensor product for every letter
        for label in all_labels(1):
            p = PauliString.from_label(label)
            mat = reference.label_matrix(label)
            ours = reference.ham_matrix(QubitHamiltonian(1, {p: 1.0}))
            assert np.allclose(mat, ours, atol=1e-14)


class TestMultiply:
    def test_single_qubit_table(self):
        cases = {
            ("X", "Y"): (1j, "Z"),
            ("Y", "X"): (-1j, "Z"),
            ("Y", "Z"): (1j, "X"),
            ("Z", "Y"): (-1j, "X"),
            ("Z", "X"): (1j, "Y"),
            ("X", "Z"): (-1j, "Y"),
            ("X", "X"): (1, "I"),
            ("Y", "Y"): (1, "I"),
            ("Z", "Z"): (1, "I"),
            ("I", "Y"): (1, "Y"),
        }
        for (a, b), (phase, out) in cases.items():
            prod = multiply(PauliString.from_label(a), PauliString.from_label(b))
            assert prod.phase == phase
            assert prod.string.to_label() == out

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            a = reference.random_label(rng, n)
            b = reference.random_label(rng, n)
            prod = multiply(PauliString.from_label(a), PauliString.from_label(b))
            lhs = reference.label_matrix(a) @ reference.label_matrix(b)
            rhs = prod.phase * reference.label_matrix(prod.string.to_label())
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_phase_is_exact_fourth_root(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            prod = multiply(
                PauliString.from_label(reference.random_label(rng, n)),
                PauliString.from_label(reference.random_label(rng, n)),
            )
            assert prod.phase in (1, 1j, -1, -1j)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiply(PauliString.from_label("X"), PauliString.from_label("XX"))

    def test_phased_pauli_validates_phase(self):
        with pytest.raises(ValueError):
            PhasedPauli(0.5 + 0.5j, PauliString.from_label("X"))


class TestCommutesAndFlip:
    def test_commutes_matches_commutator_norm(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = reference.random_label(rng, n)
            b = reference.random_label(rng, n)
            ma, mb = reference.label_matrix(a), reference.label_matrix(b)
            exact = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
            assert commutes(
                PauliString.from_label(a), PauliString.from_label(b)
            ) == exact


class TestQubitHamiltonian:
    def test_terms_sorted_canonically(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "XI": 2.0, "II": 3.0, "YY": 4.0})
        keys = [p.key() for p, _ in h.items()]
        assert keys == sorted(keys)

    def test_pruning_threshold_is_inclusive(self):
        h = QubitHamiltonian.from_labels({"X": 1e-12, "Y": 9e-13, "Z": 1.0})
        assert h.coefficient(PauliString.from_label("X")) == 1e-12
        assert h.coefficient(PauliString.from_label("Y")) == 0.0
        assert len(h) == 2

    def test_rejects_mixed_sizes_and_nonfinite(self):
        with pytest.raises(ValueError):
            QubitHamiltonian(
                2, {PauliString.from_label("X"): 1.0}
            )
        with pytest.raises(ValueError):
            QubitHamiltonian.from_labels({"XX": math.inf})
        with pytest.raises(ValueError):
            QubitHamiltonian.from_labels({})

    def test_rejects_like_terms_summing_past_float64(self):
        zz = PauliString.from_label("ZZ")
        with pytest.raises(ValueError, match="non-finite coefficient"):
            QubitHamiltonian(2, [(zz, 1e308), (zz, 1e308)])
        assert QubitHamiltonian(2, [(zz, 1e308), (zz, -1e308)]).coefficient(zz) == 0.0

    def test_identity_coefficient_and_lookup(self):
        h = QubitHamiltonian.from_labels({"II": -0.5, "ZZ": 1.5})
        assert h.identity_coefficient == -0.5
        assert h.coefficient(PauliString.from_label("ZZ")) == 1.5
        assert h.coefficient(PauliString.from_label("XX")) == 0.0

    def test_json_round_trip_and_duplicate_merge(self):
        h = QubitHamiltonian.from_labels({"XZ": 0.25, "YI": -1.75, "II": 3.0})
        again = QubitHamiltonian.from_json_dict(h.to_json_dict())
        assert again == h
        merged = QubitHamiltonian.from_json_dict(
            {
                "n_qubits": 1,
                "terms": [
                    {"pauli": "Z", "coeff": 1.0},
                    {"pauli": "Z", "coeff": 0.5},
                ],
            }
        )
        assert merged.coefficient(PauliString.from_label("Z")) == 1.5

    def test_allclose(self):
        h = QubitHamiltonian.from_labels({"XZ": 0.25, "YI": -1.75})
        close = QubitHamiltonian.from_labels({"XZ": 0.25 + 1e-12, "YI": -1.75})
        far = QubitHamiltonian.from_labels({"XZ": 0.35, "YI": -1.75})
        assert h.allclose(close)
        assert not h.allclose(far)
        assert not h.allclose(QubitHamiltonian.from_labels({"X": 0.25}))

    def test_width_limit(self):
        # the sort key x << n | z uses all 64 bits at n = 32
        n = HAMILTONIAN_MAX_QUBITS
        top, low = PauliString(n, 1 << (n - 1), 1), PauliString(n, 1, 1 << (n - 1))
        h = QubitHamiltonian(n, [(top, 1.0), (low, 2.0), (top, 0.5)])
        assert list(h.items()) == [(low, 2.0), (top, 1.5)]
        with pytest.raises(ValueError, match="n_qubits"):
            QubitHamiltonian(n + 1, {PauliString.identity(n + 1): 1.0})


class TestJsonReader:
    @pytest.mark.parametrize(
        "kind, value",
        [(int, True), (float, True), (int, 2.0), (float, "1.0"), (list, ""), (list, {}),
         (dict, []), (str, None), (bool, 0)],
    )
    def test_refuses_another_kind(self, kind, value):
        with pytest.raises(TypeError, match="is not a JSON"):
            _json(kind, value)

    def test_returns_its_kind_and_an_int_as_a_float(self):
        assert _json(int, 3) == 3 and type(_json(float, 3)) is float
        assert _json(float, 3) == 3.0 and _json(float, -0.5) == -0.5
        assert _json(bool, False) is False and _json(list, []) == [] and _json(dict, {}) == {}
        with pytest.raises(OverflowError):
            _json(float, 10**400)


class TestDress:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        h = reference.random_hamiltonian(rng, 3, 10)
        assert dress(h, PauliString.from_label("XYZ"), 0.0).allclose(h, tol=0.0)

    def test_single_qubit_rotation_moves_z_to_y(self):
        h = QubitHamiltonian.from_labels({"Z": 1.0})
        rotated = dress(h, PauliString.from_label("X"), math.pi / 2.0)
        assert rotated.allclose(QubitHamiltonian.from_labels({"Y": 1.0}))

    def test_matches_expm_conjugation(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            h = reference.random_hamiltonian(rng, n, 8)
            label = reference.random_label(rng, n)
            if set(label) == {"I"}:
                continue
            tau = float(rng.uniform(-math.pi, math.pi))
            dressed = dress(h, PauliString.from_label(label), tau)
            expected = reference.dress_matrix(
                reference.ham_matrix(h), reference.label_matrix(label), tau
            )
            assert np.allclose(reference.ham_matrix(dressed), expected, atol=1e-10)
            assert len(dressed) <= 2 * len(h)

    def test_coefficients_stay_real_floats(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        h = reference.random_hamiltonian(rng, 4, 12)
        dressed = dress(h, PauliString.from_label("XYIZ"), 0.7)
        assert all(type(c) is float for _, c in dressed.items())

    def test_sequence_folds_in_list_order(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        h = reference.random_hamiltonian(rng, 3, 8)
        p1, p2 = PauliString.from_label("XYI"), PauliString.from_label("IZX")
        t1, t2 = 0.4, -1.1
        manual = dress(dress(h, p1, t1), p2, t2)
        assert dress_sequence(h, [(p1, t1), (p2, t2)]).allclose(manual, tol=0.0)
        u1 = reference.rotation_matrix(reference.label_matrix("XYI"), t1)
        u2 = reference.rotation_matrix(reference.label_matrix("IZX"), t2)
        u = u1 @ u2
        expected = u.conj().T @ reference.ham_matrix(h) @ u
        assert np.allclose(reference.ham_matrix(manual), expected, atol=1e-10)

    def test_empty_sequence_is_identity(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        assert dress_sequence(h, []) == h

    @pytest.mark.parametrize(
        "name, mapping",
        [("chain4_d1.00.fcidump", "jordan_wigner"), ("chain4_d1.10.fcidump", "parity")],
    )
    def test_matches_the_scalar_route_along_a_fixture_trace(
        self, load_problem, name, mapping
    ):
        _, h, ref = load_problem(name, 4, 4, mapping)
        cfg = QccConfig(max_iterations=12)
        trace = qcc_run(h, ref, cfg)
        assert len(trace.iterations) == 12
        for p, tau in trace.all_generators:
            expected = hexed(reference.dress_terms(h, p, tau, DEFAULT_PRUNE))
            h = dress(h, p, tau)
            assert hexed_sum(h) == expected

    @PROPERTY
    @given(dress_cases())
    def test_matches_the_scalar_route(self, case):
        h, p, tau, prune = case
        expected = hexed(reference.dress_terms(h, p, tau, prune))
        assert hexed_sum(dress(h, p, tau, prune=prune)) == expected

    def test_rejects_bad_inputs(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        with pytest.raises(ValueError):
            dress(h, PauliString.from_label("X"), 0.3)
        with pytest.raises(ValueError):
            dress(h, PauliString.from_label("XX"), math.nan)


class TestAlgebraProperties:
    @PROPERTY
    @given(pauli_strings(2))
    def test_to_dense_is_a_homomorphism(self, pair):
        p, q = pair
        prod = multiply(p, q)
        assert np.allclose(
            to_dense(p) @ to_dense(q), prod.phase * to_dense(prod.string), atol=1e-14
        )

    @PROPERTY
    @given(hamiltonian_and_generator(), st.floats(-math.pi, math.pi))
    def test_dressing_by_minus_tau_undoes_tau(self, case, tau):
        h, p = case
        assert dress(dress(h, p, tau), p, -tau).allclose(h)

    @PROPERTY
    @given(pauli_strings(3))
    def test_multiply_is_associative_up_to_phase(self, triple):
        p, q, r = triple
        pq, qr = multiply(p, q), multiply(q, r)
        left, right = multiply(pq.string, r), multiply(p, qr.string)
        assert left.string == right.string
        assert pq.phase * left.phase == qr.phase * right.phase
