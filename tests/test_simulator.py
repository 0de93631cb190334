"""Statevector engine, commuting grouping, and shot sampling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccvqe import (
    MAX_QUBITS,
    PauliString,
    QubitHamiltonian,
    Statevector,
    apply_rotation_sequence,
    basis_index,
    bitstring_label,
    expectation,
    group_qwc,
    per_group_error,
    prepare_basis_state,
    sample_energy,
    simulator,
)

import reference
from test_pauli import PROPERTY

RNG_SEED = 20240901


def random_state(rng, n_qubits):
    amp = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return Statevector(n_qubits, amp / np.linalg.norm(amp))


class TestBasisStates:
    def test_label_index_round_trip(self):
        for index in range(16):
            assert basis_index(bitstring_label(index, 4)) == index

    def test_label_orientation(self):
        # '1100' sets qubits 0 and 1, the two least significant bits
        assert basis_index("1100") == 3
        assert bitstring_label(3, 4) == "1100"

    @pytest.mark.parametrize(
        "label", [1100, True, None, ["1", "1", "0", "0"], "11002", "1 00", "110", "11000"]
    )
    def test_basis_index_refuses_what_is_not_a_label(self, label):
        # a str of 0/1 characters, as many as the qubits when a width is given
        with pytest.raises(ValueError):
            basis_index(label, 4)
        assert basis_index("1100", 4) == basis_index("1100") == 3

    def test_prepare_from_label_and_index(self):
        a = prepare_basis_state(3, "010")
        b = prepare_basis_state(3, 2)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.flatnonzero(a.amplitudes).tolist() == [2]

    def test_prepare_rejects_bad_input(self):
        with pytest.raises(ValueError):
            prepare_basis_state(3, "01")
        with pytest.raises(ValueError):
            prepare_basis_state(3, "012")
        with pytest.raises(ValueError):
            prepare_basis_state(3, 8)
        with pytest.raises(ValueError):
            prepare_basis_state(MAX_QUBITS + 1, 0)

    def test_statevector_must_be_normalized(self):
        with pytest.raises(ValueError):
            Statevector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = prepare_basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


# Edge angles: cos and sin of tau / 2 are 1 and 0, 0 and +-1 in exact arithmetic, or equal.
SPECIAL_ANGLES = (0.0, math.pi, -math.pi, -0.5 * math.pi)


@st.composite
def rotation_cases(draw):
    """A dense random or basis state on 1-8 qubits and 0-7 random rotations,
    each at a special angle or uniform in [-2 pi, 2 pi]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        state = random_state(rng, n)
    else:
        state = prepare_basis_state(n, int(rng.integers(0, 1 << n)))
    pairs = []
    for _ in range(draw(st.integers(0, 7))):
        p = PauliString.from_label(reference.random_label(rng, n))
        special = draw(st.sampled_from(SPECIAL_ANGLES))
        pairs.append((p, special if draw(st.booleans()) else float(rng.uniform(-2, 2) * math.pi)))
    return state, pairs


class TestPauliAction:
    @PROPERTY
    @given(rotation_cases())
    def test_rotation_sequence_keeps_the_reference_bits(self, case):
        # sample_energy's multinomial reads |amp|^2, so the shot pass needs
        # the same bits; array_equal treats -0.0 and 0.0 as equal
        state, pairs = case
        out = apply_rotation_sequence(state, pairs)
        assert np.array_equal(out.amplitudes, reference.rotation_sequence(state, pairs))

    def test_apply_pauli_matches_matrix(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            label = reference.random_label(rng, n)
            # exp(-i pi P / 2) = -i P
            out = apply_rotation_sequence(state, [(PauliString.from_label(label), math.pi)])
            expected = reference.label_matrix(label) @ state.amplitudes
            assert np.allclose(1j * out.amplitudes, expected, atol=1e-12)

    def test_rotation_matches_expm(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            label = reference.random_label(rng, n)
            tau = float(rng.uniform(-math.pi, math.pi))
            out = apply_rotation_sequence(state, [(PauliString.from_label(label), tau)])
            u = reference.rotation_matrix(reference.label_matrix(label), tau)
            assert np.allclose(out.amplitudes, u @ state.amplitudes, atol=1e-12)

    def test_rotation_sequence_applies_last_entry_first(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        state = random_state(rng, 3)
        pairs = [
            (PauliString.from_label("XYI"), 0.7),
            (PauliString.from_label("ZIX"), -0.4),
            (PauliString.from_label("IYY"), 1.2),
        ]
        out = apply_rotation_sequence(state, pairs)
        u = np.eye(8, dtype=np.complex128)
        for p, tau in pairs:
            u = u @ reference.rotation_matrix(
                reference.label_matrix(p.to_label()), tau
            )
        assert np.allclose(out.amplitudes, u @ state.amplitudes, atol=1e-12)

    def test_rejects_mismatched_width_and_bad_angle(self):
        state = prepare_basis_state(2, 0)
        xx = PauliString.from_label("XX")
        with pytest.raises(ValueError):
            apply_rotation_sequence(state, [(xx, math.inf)])
        with pytest.raises(ValueError, match="qubit-count mismatch"):
            apply_rotation_sequence(state, [(xx, 0.3), (PauliString.from_label("X"), 0.1)])
        with pytest.raises(ValueError, match="non-finite rotation angle"):
            apply_rotation_sequence(state, [(xx, math.nan), (xx, 0.1)])

    def test_rotation_sequence_equals_fold_of_single_rotations(self):
        # the sequence runs on raw amplitudes and validates only its result
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            pairs = [
                (PauliString.from_label(reference.random_label(rng, n)), float(tau))
                for tau in rng.uniform(-math.pi, math.pi, int(rng.integers(0, 12)))
            ]
            folded = state
            for pair in reversed(pairs):
                folded = apply_rotation_sequence(folded, [pair])
            out = apply_rotation_sequence(state, pairs)
            assert isinstance(out, Statevector)
            assert np.max(np.abs(out.amplitudes - folded.amplitudes)) < 1e-12


class TestExpectation:
    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            h = reference.random_hamiltonian(rng, n, 10)
            expected = np.vdot(
                state.amplitudes, reference.ham_matrix(h) @ state.amplitudes
            )
            assert abs(expected.imag) < 1e-9
            assert abs(expectation(state, h) - expected.real) < 1e-10
        # sparse states, where most rows of the entries leave the support
        for _ in range(50):
            n = int(rng.integers(1, 9))
            amp = np.zeros(1 << n, dtype=np.complex128)
            hits = rng.choice(1 << n, size=min(int(rng.integers(1, 5)), 1 << n), replace=False)
            amp[hits] = rng.normal(size=hits.size) + 1j * rng.normal(size=hits.size)
            state = Statevector(n, amp / np.linalg.norm(amp))
            h = reference.random_hamiltonian(rng, n, 20)
            expected = np.vdot(
                state.amplitudes, reference.ham_matrix(h) @ state.amplitudes
            )
            assert abs(expectation(state, h) - expected.real) < 1e-10
            assert abs(reference.expectation(state, h) - expected.real) < 1e-10

    def test_dressing_equals_circuit(self):
        from qccvqe import dress_sequence

        rng = np.random.default_rng(RNG_SEED + 5)
        h = reference.random_hamiltonian(rng, 4, 12)
        ref = prepare_basis_state(4, "1010")
        pairs = [
            (PauliString.from_label("XXYI"), 0.9),
            (PauliString.from_label("IZXY"), -0.5),
        ]
        dressed = dress_sequence(h, pairs)
        circuit = apply_rotation_sequence(ref, pairs)
        assert abs(expectation(ref, dressed) - expectation(circuit, h)) < 1e-10

    def test_same_bits_at_any_blas_thread_count(self):
        # 483,328 entries and 16,384 outcomes: OpenBLAS would split a complex dot
        # of the one and the real dots of the other over threads
        script = (
            "import numpy as np\n"
            "import reference\n"
            "from conftest import build_problem\n"
            "from qccvqe import Statevector, expectation, group_qwc, sample_energy\n"
            "_, h, _ = build_problem('chain6_d1.00.fcidump', 6, 6)\n"
            f"rng = np.random.default_rng({RNG_SEED + 9})\n"
            "amp = rng.normal(size=4096) + 1j * rng.normal(size=4096)\n"
            "print(repr(expectation(Statevector(12, amp / np.linalg.norm(amp)), h)))\n"
            "amp = rng.normal(size=1 << 14) + 1j * rng.normal(size=1 << 14)\n"
            "state = Statevector(14, amp / np.add.reduce(abs(amp) ** 2) ** 0.5)\n"
            "est = sample_energy(state, group_qwc(reference.random_hamiltonian(rng, 14, 12)), 4000, 5)\n"
            "print(repr((est.energy, est.std_error, est.per_group)))\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        values = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert values[0] == values[1]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expectation(
                prepare_basis_state(2, 0), QubitHamiltonian.from_labels({"X": 1.0})
            )


class TestEntries:
    @PROPERTY
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_pair_masks_read_every_entry_that_counts(self, n, seed):
        """Reading only the x-masks i ^ j of the basis loses no energy."""
        rng = np.random.default_rng(seed)
        h = reference.random_hamiltonian(rng, n, int(rng.integers(1, 40)))
        basis = np.flatnonzero(rng.random(1 << n) < rng.uniform(0.05, 1.0))
        basis = (basis if basis.size else np.array([0])).astype(np.uint64)
        amp = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        amp /= np.linalg.norm(amp)

        def energy(flips):
            rows, cols, vals = simulator._entries(h, basis, flips)
            return np.vdot(amp[rows], vals * amp[cols]).real

        pairs = np.unique(basis[:, None] ^ basis, return_index=True)[0]
        block = reference.ham_matrix(h)[np.ix_(basis, basis)]
        assert energy(pairs) == pytest.approx(energy(None), abs=1e-12)
        assert energy(None) == pytest.approx(np.vdot(amp, block @ amp).real, abs=1e-10)


class TestGrouping:
    def test_partition_is_exact_and_compatible(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            h = reference.random_hamiltonian(rng, n, 20)
            grouping = group_qwc(h)
            assert grouping.constant == h.identity_coefficient
            grouped = []
            for group in grouping.groups:
                labels = [p.to_label() for p, _ in group.members]
                for a in labels:
                    for b in labels:
                        assert reference.qwc_compatible(a, b)
                    # every member letter must match the shared basis or be I
                    for la, lb in zip(a, group.shared_basis):
                        assert la == "I" or la == lb
                grouped.extend(group.members)
            non_identity = [(p, c) for p, c in h.items() if not p.is_identity]
            assert sorted(p.key() for p, _ in grouped) == sorted(
                p.key() for p, _ in non_identity
            )
            for p, c in grouped:
                assert h.coefficient(p) == c

    def test_deterministic(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        h = reference.random_hamiltonian(rng, 5, 25)
        first = group_qwc(h)
        second = group_qwc(h)
        assert [g.members for g in first.groups] == [g.members for g in second.groups]

    def test_single_basis_hamiltonian_stays_one_group(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "ZI": 0.5, "IZ": -0.25})
        grouping = group_qwc(h)
        assert len(grouping.groups) == 1
        assert grouping.groups[0].shared_basis == "ZZ"


@st.composite
def states_and_sums(draw):
    """A random state and a real Pauli sum holding at least one Y letter."""
    n = draw(st.integers(1, 4))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.dictionaries(labels, coeff, max_size=12))
    terms[draw(labels.filter(lambda label: "Y" in label))] = draw(st.floats(0.1, 2.0))
    state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return state, QubitHamiltonian.from_labels(terms)


class TestSampling:
    @PROPERTY
    @given(states_and_sums(), st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_group_exact_values_are_the_group_expectations(self, case, shots, seed):
        state, h = case
        grouping = group_qwc(h)
        estimate = sample_energy(state, grouping, shots=shots, seed=seed)
        assert len(estimate.per_group) == len(grouping.groups)
        for group, (_, exact) in zip(grouping.groups, estimate.per_group):
            members = QubitHamiltonian(state.n_qubits, group.members)
            assert exact == pytest.approx(expectation(state, members), abs=1e-12)
        assert estimate.constant + sum(exact for _, exact in estimate.per_group) == pytest.approx(
            expectation(state, h), abs=1e-12
        )
        assert per_group_error(estimate) == [
            (gid, exact - sampled) for gid, (sampled, exact) in enumerate(estimate.per_group)
        ]

    def test_eigenstate_sampling_is_exact(self):
        # a basis state measured in a diagonal Hamiltonian has zero variance
        h = QubitHamiltonian.from_labels({"ZZ": 0.75, "ZI": -0.5, "II": 2.0})
        state = prepare_basis_state(2, "10")
        grouping = group_qwc(h)
        estimate = sample_energy(state, grouping, shots=500, seed=11)
        assert estimate.energy == pytest.approx(expectation(state, h), abs=1e-12)
        assert estimate.std_error == 0.0
        for _, diff in per_group_error(estimate):
            assert abs(diff) < 1e-12

    def test_seeded_runs_reproduce(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        h = reference.random_hamiltonian(rng, 3, 10)
        state = random_state(rng, 3)
        grouping = group_qwc(h)
        a = sample_energy(state, grouping, shots=2000, seed=5)
        b = sample_energy(state, grouping, shots=2000, seed=5)
        c = sample_energy(state, grouping, shots=2000, seed=6)
        assert a == b
        assert a.energy != c.energy
        assert a.rng == "numpy-pcg64-multinomial"
        assert a.shots == 2000
        assert len(a.per_group) == len(grouping.groups)

    def test_mean_estimate_is_unbiased(self):
        rng = np.random.default_rng(RNG_SEED + 9)
        h = reference.random_hamiltonian(rng, 3, 10)
        state = random_state(rng, 3)
        grouping = group_qwc(h)
        exact = expectation(state, h)
        estimates = [
            sample_energy(state, grouping, shots=2000, seed=s).energy
            for s in range(60)
        ]
        pooled_se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - exact) < 4.0 * pooled_se

    def test_reported_error_tracks_observed_spread(self):
        rng = np.random.default_rng(RNG_SEED + 10)
        h = reference.random_hamiltonian(rng, 3, 10)
        state = random_state(rng, 3)
        grouping = group_qwc(h)
        results = [
            sample_energy(state, grouping, shots=4000, seed=s) for s in range(60)
        ]
        observed = np.std([r.energy for r in results], ddof=1)
        reported = np.mean([r.std_error for r in results])
        assert 0.5 < reported / observed < 2.0

    def test_per_group_errors_sum_to_total_error(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        h = reference.random_hamiltonian(rng, 3, 12)
        state = random_state(rng, 3)
        grouping = group_qwc(h)
        estimate = sample_energy(state, grouping, shots=1000, seed=3)
        diffs = per_group_error(estimate)
        exact = expectation(state, h)
        assert sum(d for _, d in diffs) == pytest.approx(
            exact - estimate.energy, abs=1e-10
        )

    def test_rejects_bad_arguments(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        state = prepare_basis_state(2, 0)
        grouping = group_qwc(h)
        # the multinomial draw takes a C long: 2**63 - 1 shots is the most
        assert sample_energy(state, grouping, shots=2**63 - 1, seed=1).energy == 1.0
        for shots in (0, 2**63):
            with pytest.raises(ValueError, match="shots must be in"):
                sample_energy(state, grouping, shots=shots, seed=1)
        # in the words the CLI uses for a negative --seed or manifest seed
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            sample_energy(state, grouping, shots=10, seed=-1)
        with pytest.raises(ValueError):
            sample_energy(prepare_basis_state(3, 0), grouping, shots=10, seed=1)


@st.composite
def states_and_bases(draw):
    """A random state on 1-8 qubits and a random shared basis, I/X/Y/Z per qubit."""
    n = draw(st.integers(1, 8))
    state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return state, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))


@st.composite
def states_and_wide_sums(draw):
    """A random state on 1-8 qubits and a Pauli sum of up to 40 terms."""
    n = draw(st.integers(1, 8))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.dictionaries(labels, coeff, min_size=1, max_size=40))
    state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return state, QubitHamiltonian.from_labels(terms)


class TestShotKernelsMatchReference:
    """The shot pass against its earlier einsum and PauliString kernels, value for value."""

    @PROPERTY
    @given(states_and_bases())
    def test_basis_change_matches_einsum(self, case):
        state, basis_x, basis_z = case
        group = simulator.MeasurementGroup(
            basis_x, basis_z, ((PauliString(state.n_qubits, basis_x, basis_z), 1.0),)
        )
        assert np.array_equal(
            simulator._rotate_to_group_basis(state, group),
            reference.rotate_to_group_basis(state, basis_x, basis_z),
        )

    @PROPERTY
    @given(states_and_wide_sums())
    def test_grouping_matches_pauli_string_first_fit(self, case):
        _, h = case
        assert group_qwc(h) == reference.group_qwc(h)

    @PROPERTY
    @given(states_and_wide_sums(), st.integers(1, 5000), st.integers(0, 2**32 - 1))
    def test_sample_energy_matches_reference_pass(self, case, shots, seed):
        state, h = case
        assert sample_energy(state, group_qwc(h), shots, seed) == reference.sample_energy(
            state, reference.group_qwc(h), shots, seed
        )
