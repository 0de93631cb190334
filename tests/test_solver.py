"""Generator screening, amplitude optimization, the iterative loop, and the
difference-decay extrapolation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccvqe import (
    ExtrapolationError,
    PauliString,
    QccConfig,
    QccTrace,
    QubitHamiltonian,
    apply_rotation_sequence,
    dress_sequence,
    exact_ground,
    expectation,
    extrapolate,
    flip_representative,
    occupation_decoder,
    optimize_amplitudes,
    optimize_uccsd,
    prepare_basis_state,
    qcc_run,
    screen_generators,
    total_energy,
    uccsd_excitations,
    uccsd_generator_paulis,
)
from qccvqe.solver import _support_energy

import reference
from test_pauli import PROPERTY

RNG_SEED = 20241002


def circuit_energy(h, ref, generator, tau):
    state = apply_rotation_sequence(ref, [(generator, tau)])
    return expectation(state, h)


@st.composite
def support_cases(draw):
    """Random real Pauli sum, basis reference and 0-3 rotations on 1-6 qubits.

    Strings, coefficients and angles come from a drawn seed. Rotations pick
    from a pool of two strings, so repeats are common, and a quarter of the
    angles are zero; the rest are uniform in [-pi, pi].
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = reference.random_hamiltonian(rng, n, draw(st.integers(1, 24)))
    b = draw(st.integers(0, (1 << n) - 1))
    pool = [PauliString.from_label(reference.random_label(rng, n)) for _ in range(2)]
    k = draw(st.integers(0, 3))
    taus = np.where(rng.random(k) < 0.25, 0.0, rng.uniform(-math.pi, math.pi, k))
    pairs = [(pool[j], float(t)) for j, t in zip(rng.integers(0, 2, k), taus)]
    return h, b, pairs


class TestScreening:
    def test_representative_shape(self):
        rep = flip_representative({3, 1, 5}, 6)
        assert rep.to_label() == "IYIXIX"
        with pytest.raises(ValueError):
            flip_representative([], 4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h = reference.random_hamiltonian(rng, n, 12)
            ref = prepare_basis_state(n, int(rng.integers(0, 1 << n)))
            candidates = screen_generators(h, ref)
            screened = set()
            for cand in candidates:
                screened.add(cand.flip_set)
                fd = reference.centered_difference(
                    lambda t, g=cand.representative: circuit_energy(h, ref, g, t)
                )
                assert cand.gradient_magnitude == pytest.approx(abs(fd), abs=1e-6)
            # groups the screen dropped must have a vanishing derivative
            for x_mask in np.unique(h.x).tolist():
                fset = frozenset(q for q in range(n) if (x_mask >> q) & 1)
                if not fset or fset in screened:
                    continue
                rep = flip_representative(fset, n)
                fd = reference.centered_difference(
                    lambda t: circuit_energy(h, ref, rep, t)
                )
                assert abs(fd) < 1e-8

    def test_sorted_by_magnitude_then_key(self):
        h = QubitHamiltonian.from_labels({"XZ": 0.25, "ZX": 0.25, "YI": 0.5})
        ref = prepare_basis_state(2, 0)
        candidates = screen_generators(h, ref)
        mags = [c.gradient_magnitude for c in candidates]
        assert mags == sorted(mags, reverse=True)
        equal = [c for c in candidates if c.gradient_magnitude == pytest.approx(0.25)]
        keys = [c.representative.key() for c in equal]
        assert keys == sorted(keys)

    def test_rounding_noise_does_not_break_ties(self):
        # both gradients are 0.3 in exact arithmetic; IY's sum rounds to
        # 0.30000000000000004, which must not put it ahead of YI
        h = QubitHamiltonian.from_labels({"XI": 0.3, "IX": 0.1, "ZX": 0.2, "ZZ": 1.0})
        candidates = screen_generators(h, prepare_basis_state(2, 0))
        labels = [c.representative.to_label() for c in candidates]
        assert labels == ["YI", "IY"]

    def test_diagonal_hamiltonian_has_no_candidates(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "ZI": 0.5, "II": -2.0})
        assert screen_generators(h, prepare_basis_state(2, 0)) == []

    def test_requires_basis_reference(self):
        h = QubitHamiltonian.from_labels({"XX": 1.0})
        rng = np.random.default_rng(RNG_SEED + 1)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        from qccvqe import Statevector

        state = Statevector(2, amp / np.linalg.norm(amp))
        with pytest.raises(ValueError):
            screen_generators(h, state)


class TestSupportEnergy:
    @PROPERTY
    @given(support_cases())
    def test_matches_the_statevector(self, case):
        h, b, pairs = case
        ref = prepare_basis_state(h.n_qubits, b)
        expected = expectation(apply_rotation_sequence(ref, pairs), h)
        assert _support_energy(h, b, pairs) == pytest.approx(
            expected, abs=1e-12
        )


class TestOptimize:
    def test_single_generator_analytic_minimum(self):
        # E(tau) = cos(tau) - 0.5 sin(tau) has minimum -sqrt(1.25)
        h = QubitHamiltonian.from_labels({"Z": 1.0, "X": 0.5})
        ref = prepare_basis_state(1, 0)
        gen = screen_generators(h, ref)[0].representative
        energy, taus = optimize_amplitudes(h, ref, [gen])
        assert energy == pytest.approx(-math.sqrt(1.25), abs=1e-10)
        assert len(taus) == 1
        slope = reference.centered_difference(
            lambda t: circuit_energy(h, ref, gen, taus[0] + t)
        )
        assert abs(slope) < 1e-5

    def test_never_worse_than_zero(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for n_gen in (1, 2):
            h = reference.random_hamiltonian(rng, 3, 10)
            ref = prepare_basis_state(3, 5)
            gens = [
                flip_representative({0}, 3),
                flip_representative({1, 2}, 3),
            ][:n_gen]
            e_zero = expectation(ref, h)
            energy, taus = optimize_amplitudes(h, ref, gens)
            assert energy <= e_zero + 1e-12
            assert len(taus) == n_gen

    def test_two_generators_stay_variational_and_descend(self):
        h = QubitHamiltonian.from_labels(
            {"ZI": 0.8, "IZ": 0.6, "XX": 0.4, "YI": 0.3}
        )
        ref = prepare_basis_state(2, 0)
        gens = [flip_representative({0, 1}, 2), flip_representative({0}, 2)]
        energy, taus = optimize_amplitudes(h, ref, gens)
        exact = exact_ground(h).energy
        e_zero = expectation(ref, h)
        assert exact - 1e-10 <= energy <= e_zero + 1e-12
        assert energy < e_zero - 0.5  # the sweeps must find real descent
        state = apply_rotation_sequence(ref, list(zip(gens, taus)))
        assert expectation(state, h) == pytest.approx(energy, abs=1e-12)

    def test_empty_generator_list_rejected(self):
        h = QubitHamiltonian.from_labels({"Z": 1.0})
        with pytest.raises(ValueError):
            optimize_amplitudes(h, prepare_basis_state(1, 0), [])

    def test_requires_basis_reference(self):
        h = QubitHamiltonian.from_labels({"XX": 1.0, "ZI": 0.5})
        amp = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        from qccvqe import Statevector

        with pytest.raises(ValueError, match="computational-basis"):
            optimize_amplitudes(h, Statevector(2, amp), [flip_representative({0}, 2)])

    def test_single_generator_beats_a_fine_grid(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        grid = np.linspace(-math.pi, math.pi, 720, endpoint=False)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            h = reference.random_hamiltonian(rng, n, 12)
            ref = prepare_basis_state(n, int(rng.integers(0, 1 << n)))
            flips = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            gen = flip_representative({int(q) for q in flips}, n)
            energy, taus = optimize_amplitudes(h, ref, [gen])
            grid_min = min(circuit_energy(h, ref, gen, t) for t in grid)
            assert energy <= grid_min + 1e-12
            assert -math.pi <= taus[0] <= math.pi
            assert circuit_energy(h, ref, gen, taus[0]) == pytest.approx(
                energy, abs=1e-12
            )

    def test_several_generators_reach_a_stationary_point(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        # E = sin(t0) sin(t1): flat along each axis through zero, where a
        # coordinate must not be moved by the rounding noise of its curve
        cases = [
            (
                QubitHamiltonian.from_labels({"XX": 1.0}),
                prepare_basis_state(2, 0),
                [flip_representative({0}, 2), flip_representative({1}, 2)],
            )
        ]
        for n_gen in (2, 3, 2, 3, 2, 3):
            n = 4
            flip_sets = set()
            while len(flip_sets) < n_gen:
                size = int(rng.integers(1, n + 1))
                flip_sets.add(frozenset(int(q) for q in rng.choice(n, size, replace=False)))
            cases.append(
                (
                    reference.random_hamiltonian(rng, n, 16),
                    prepare_basis_state(n, int(rng.integers(0, 1 << n))),
                    [flip_representative(f, n) for f in sorted(flip_sets, key=sorted)],
                )
            )
        for h, ref, gens in cases:
            energy, taus = optimize_amplitudes(h, ref, gens)
            assert energy <= expectation(ref, h) + 1e-12
            for j in range(len(gens)):

                def along(t, j=j):
                    shifted = list(taus)
                    shifted[j] += t
                    state = apply_rotation_sequence(ref, list(zip(gens, shifted)))
                    return expectation(state, h)

                assert abs(reference.centered_difference(along)) < 1e-6


class TestQccRun:
    def test_diagonal_input_converges_immediately(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "IZ": -0.5})
        trace = qcc_run(h, prepare_basis_state(2, 0))
        assert trace.converged
        assert len(trace.iterations) == 0
        assert trace.final_energy == trace.initial_energy
        assert trace.reference == "00"

    def test_dimer_fixture_converges_in_one_iteration(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        trace = qcc_run(
            h, ref, e_inactive=prob.e_inactive, e_nuclear=prob.e_nuclear
        )
        assert trace.converged
        assert len(trace.iterations) == 1
        assert trace.parameters_used == 1
        gs = exact_ground(
            h, n_electrons=2, occupation_of=occupation_decoder("jw", h.n_qubits)
        )
        assert trace.final_energy == pytest.approx(gs.energy, abs=1e-9)
        assert total_energy(trace) == pytest.approx(
            gs.energy + prob.e_inactive + prob.e_nuclear, abs=1e-12
        )

    def test_recorded_iterations_gain_at_least_the_tolerance(self, chain4_problem):
        prob, h, ref_label = chain4_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        cfg = QccConfig(max_iterations=4, energy_tolerance=1e-6)
        trace = qcc_run(h, ref, cfg)
        assert len(trace.iterations) == 4
        energies = trace.energies
        for before, after in zip(energies, energies[1:]):
            assert before - after >= cfg.energy_tolerance
        for record in trace.iterations:
            assert record.term_count > 0
            assert len(record.generators) == 1
            assert record.gradients[0] > 0.0

    def test_recorded_energies_match_the_statevector(self, chain4_problem):
        _, h, ref_label = chain4_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        cfg = QccConfig(max_iterations=6)
        trace = qcc_run(h, ref, cfg)
        assert trace.initial_energy == pytest.approx(expectation(ref, h), abs=1e-10)
        dressed = h
        for record in trace.iterations:
            dressed = dress_sequence(
                dressed, record.generators, prune=cfg.prune_threshold
            )
            assert record.energy == pytest.approx(expectation(ref, dressed), abs=1e-10)

    def test_trace_json_round_trip(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        trace = qcc_run(h, ref, e_inactive=prob.e_inactive, e_nuclear=prob.e_nuclear)
        payload = trace.to_json_dict()
        assert payload["schema"] == "qcc-trace/1"
        again = QccTrace.from_json_dict(json.loads(json.dumps(payload)))
        assert again == trace

    def test_energies_and_generators_views(self, dimer_problem):
        _, h, ref_label = dimer_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        trace = qcc_run(h, ref)
        assert trace.energies[0] == trace.initial_energy
        assert trace.energies[-1] == trace.final_energy
        assert len(trace.all_generators) == trace.parameters_used


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QccConfig(generators_per_iteration=0)
        with pytest.raises(ValueError):
            QccConfig(max_iterations=0)
        with pytest.raises(ValueError):
            QccConfig(energy_tolerance=0.0)

    def test_from_mapping_rejects_unknown_keys(self):
        cfg = QccConfig.from_mapping({"max_iterations": 7, "seed": 3})
        assert cfg.max_iterations == 7 and cfg.seed == 3
        # grid_points: a removed amplitude-search setting
        for unknown in ({"max_iter": 7}, {"grid_points": 48}):
            with pytest.raises(ValueError):
                QccConfig.from_mapping(unknown)


def geometric_energies(e0, a, b, count):
    return [e0 + 10.0 ** (a * i + b) for i in range(count)]


class TestExtrapolate:
    def test_recovers_planted_model(self):
        e0, a, b = -1.5, -0.08, 0.3
        energies = geometric_energies(e0, a, b, 46)
        result = extrapolate(energies, discard=5, window=35)
        assert result.a == pytest.approx(a, abs=1e-10)
        assert result.b == pytest.approx(b, abs=1e-8)
        assert result.e0_estimate == pytest.approx(e0, abs=1e-10)
        assert result.residual < 1e-10
        assert result.fit_window == (5, 35)

    def test_threshold_iterations_bracket_the_fit(self):
        energies = geometric_energies(-2.0, -0.1, 0.5, 50)
        thresholds = (1.6e-3, 1.6e-4, 1e-2)
        result = extrapolate(energies, thresholds=thresholds)
        c = result.b + math.log10(10.0 ** (-result.a) - 1.0)
        for t, i in result.iter_at_threshold.items():
            fitted = lambda k: 10.0 ** (result.a * k + c)
            assert fitted(i) <= t
            assert fitted(i - 1) > t

    def test_accepts_trace_objects(self, dimer_problem):
        # short dimer trace cannot support the default window
        _, h, ref_label = dimer_problem
        trace = qcc_run(h, prepare_basis_state(h.n_qubits, ref_label))
        with pytest.raises(ExtrapolationError):
            extrapolate(trace)

    def test_rejects_non_positive_differences(self):
        energies = geometric_energies(-1.0, -0.1, 0.0, 46)
        energies[20] = energies[19] + 0.01  # uphill step inside the window
        with pytest.raises(ExtrapolationError) as err:
            extrapolate(energies)
        assert 20 in err.value.violations or 21 in err.value.violations

    def test_rejects_growing_differences(self):
        energies = [-(10.0 ** (0.05 * i)) for i in range(46)]
        with pytest.raises(ExtrapolationError, match="not decaying"):
            extrapolate(energies)

    def test_rejects_bad_window_settings(self):
        energies = geometric_energies(-1.0, -0.1, 0.0, 20)
        with pytest.raises(ExtrapolationError, match="needs"):
            extrapolate(energies)
        with pytest.raises(ExtrapolationError):
            extrapolate(energies, window=2)
        with pytest.raises(ExtrapolationError):
            extrapolate(energies, discard=-1)


class TestUccsdOptimization:
    def test_dimer_uccsd_reaches_exact_ground(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        exc = uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
        generators = uccsd_generator_paulis(exc, prob.n_spin_orbitals, "jw")
        ref = prepare_basis_state(h.n_qubits, ref_label)
        energy, amplitudes = optimize_uccsd(h, ref, generators)
        gs = exact_ground(
            h, n_electrons=2, occupation_of=occupation_decoder("jw", h.n_qubits)
        )
        assert energy == pytest.approx(gs.energy, abs=1e-6)
        assert len(amplitudes) == 3

    def test_empty_generators_rejected(self):
        h = QubitHamiltonian.from_labels({"Z": 1.0})
        with pytest.raises(ValueError):
            optimize_uccsd(h, prepare_basis_state(1, 0), [])
