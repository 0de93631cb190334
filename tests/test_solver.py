"""Generator screening, amplitude optimization, the iterative loop, and the
difference-decay extrapolation."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qccvqe import (
    ExtrapolationError,
    FitRequestError,
    PauliString,
    QccConfig,
    QccTrace,
    QubitHamiltonian,
    apply_rotation_sequence,
    basis_index,
    bitstring_label,
    dress_sequence,
    exact_ground,
    expectation,
    extrapolate,
    flip_representative,
    hf_bitstring,
    optimize_amplitudes,
    optimize_uccsd,
    prepare_basis_state,
    qcc_run,
    screen_generators,
    sector_basis,
    total_energy,
    uccsd_excitations,
    uccsd_generator_paulis,
)
from qccvqe import solver
from qccvqe.simulator import _entries
from qccvqe.solver import _circuit_energy, _two_harmonic_step

import reference
from test_pauli import PROPERTY

RNG_SEED = 20241002


def circuit_energy(h, label, generator, tau):
    """<psi|H|psi> for one rotation of the label's dense basis state."""
    state = prepare_basis_state(h.n_qubits, label)
    return expectation(apply_rotation_sequence(state, [(generator, tau)]), h)


def flip_mask(qubits):
    return sum(1 << int(q) for q in qubits)


@st.composite
def circuit_cases(draw):
    """Random real Pauli sum, basis reference and circuit on 1-6 qubits.

    Half the circuits are 0-3 QCC rotations from a pool of two strings, so
    repeats are common, with a quarter of the angles zero and the rest
    uniform in [-pi, pi]. The other half are the UCCSD excitations of 1-3
    orbitals under JW or parity at uniform amplitudes; from a random
    reference many states are uncoupled from some excitation. Returns the
    kernel's generators and angles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        pool = [PauliString.from_label(reference.random_label(rng, n)) for _ in range(2)]
        k = draw(st.integers(0, 3))
        taus = np.where(rng.random(k) < 0.25, 0.0, rng.uniform(-math.pi, math.pi, k))
        # exp(-i tau P / 2) = exp(i t P) at t = -tau / 2
        generators = [[(pool[j], 1.0)] for j in rng.integers(0, 2, k)]
        ts = [-0.5 * float(tau) for tau in taus]
    else:
        orbitals = draw(st.integers(1, 3))
        n = 2 * orbitals
        exc = uccsd_excitations(draw(st.integers(0, n)), orbitals)
        mapping = draw(st.sampled_from(["jordan_wigner", "parity"]))
        generators = uccsd_generator_paulis(exc, n, mapping)
        ts = rng.uniform(-math.pi, math.pi, len(generators)).tolist()
    h = reference.random_hamiltonian(rng, n, draw(st.integers(1, 24)))
    return h, draw(st.integers(0, (1 << n) - 1)), generators, ts


@st.composite
def screening_cases(draw):
    """Random real Pauli sum on 1-8 qubits and a random basis label.

    Up to 120 distinct strings, so on 3-4 qubits an x-mask group often has
    8 or more terms, where a pairwise sum would move the last bits. Half
    the sums have coefficients rounded to multiples of 0.1, so gradients
    tie exactly or up to rounding noise and the tie-break decides.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    h = reference.random_hamiltonian(rng, n, draw(st.integers(1, 120)))
    if draw(st.booleans()):
        h = QubitHamiltonian(n, [(p, round(c, 1)) for p, c in h.items()])
    return h, "".join(rng.choice(list("01"), size=n))


# Not one 0/1 bit per qubit of a two-qubit sum; "1" alone would name index 1.
BAD_LABELS = ("1", "100", "1x", "")


class TestScreening:
    def test_representative_shape(self):
        rep = flip_representative(flip_mask({3, 1, 5}), 6)
        assert rep.to_label() == "IYIXIX"
        with pytest.raises(ValueError):
            flip_representative(0, 4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h = reference.random_hamiltonian(rng, n, 12)
            ref = bitstring_label(int(rng.integers(0, 1 << n)), n)
            ranked = screen_generators(h, ref)
            screened = set()
            for x_mask, grad in ranked:
                screened.add(x_mask)
                fd = reference.centered_difference(
                    lambda t, g=flip_representative(x_mask, n): circuit_energy(h, ref, g, t)
                )
                assert grad == pytest.approx(abs(fd), abs=1e-6)
            # groups the screen dropped must have a vanishing derivative
            for x_mask in np.unique(h.x).tolist():
                if not x_mask or x_mask in screened:
                    continue
                rep = flip_representative(x_mask, n)
                fd = reference.centered_difference(
                    lambda t: circuit_energy(h, ref, rep, t)
                )
                assert abs(fd) < 1e-8

    def test_sorted_by_magnitude_then_key(self):
        h = QubitHamiltonian.from_labels({"XZ": 0.25, "ZX": 0.25, "YI": 0.5})
        ranked = screen_generators(h, "00")
        mags = [grad for _, grad in ranked]
        assert mags == sorted(mags, reverse=True)
        equal = [x_mask for x_mask, grad in ranked if grad == pytest.approx(0.25)]
        assert len(equal) == 2 and equal == sorted(equal)

    def test_rounding_noise_does_not_break_ties(self):
        # both gradients are 0.3 in exact arithmetic; IY's sum rounds to
        # 0.30000000000000004, which must not put it ahead of YI
        h = QubitHamiltonian.from_labels({"XI": 0.3, "IX": 0.1, "ZX": 0.2, "ZZ": 1.0})
        labels = [flip_representative(x, 2).to_label() for x, _ in screen_generators(h, "00")]
        assert labels == ["YI", "IY"]

    @PROPERTY
    @given(screening_cases())
    def test_matches_the_term_loop(self, case):
        h, ref = case
        assert screen_generators(h, ref) == reference.screen(h, ref)

    def test_diagonal_hamiltonian_has_no_candidates(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "ZI": 0.5, "II": -2.0})
        assert screen_generators(h, "00") == []

    def test_requires_basis_reference(self):
        h = QubitHamiltonian.from_labels({"XX": 1.0})
        for label in BAD_LABELS:
            with pytest.raises(ValueError):
                screen_generators(h, label)


class TestCircuitEnergy:
    @PROPERTY
    @given(circuit_cases())
    def test_matches_the_statevector(self, case):
        # Kronecker matrices and expm, not `apply_rotation_sequence` and
        # `expectation`, which share the pair step and the quadratic form
        h, b, generators, ts = case
        psi = np.zeros(1 << h.n_qubits, dtype=np.complex128)
        psi[b] = 1.0
        for gen, t in zip(generators, ts):  # exp(i t G) is the rotation by tau = -2t
            g_mat = sum(c * reference.label_matrix(p.to_label()) for p, c in gen)
            psi = reference.rotation_matrix(g_mat, -2.0 * t) @ psi
        expected = np.vdot(psi, reference.ham_matrix(h) @ psi).real
        assert _circuit_energy(h, b, generators)(ts) == pytest.approx(expected, abs=1e-12)

    def test_refuses_generators_it_cannot_rotate(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        x0, x1, y1 = (PauliString.from_label(label) for label in ("XI", "IX", "IY"))
        with pytest.raises(ValueError, match="different masks"):
            _circuit_energy(h, 0, [[(x0, 0.5), (x1, 0.5)]])
        # X + Y sends |s> to (1 +- i)|s ^ 1>, which no 2x2 rotation by t is
        with pytest.raises(ValueError, match="modulus 0 or 1"):
            _circuit_energy(h, 0, [[(x1, 1.0), (y1, 1.0)]])

    @staticmethod
    def check_flips(h, b, generators):
        """The flips _circuit_energy hands _entries, checked; their count."""
        calls = []

        def spy(h, basis, flips):
            calls.append((basis, flips, _entries(h, basis, flips)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_entries", spy)
            _circuit_energy(h, b, generators)
        [(basis, flips, entries)] = calls
        assert flips.dtype == np.uint64
        assert (flips[1:] > flips[:-1]).all()  # sorted and distinct
        masks = np.unique(h.x)
        assert np.isin(flips, masks).all()
        linked = np.intersect1d(np.unique(basis[:, None] ^ basis), masks)
        assert np.isin(linked, flips).all()
        if all(len(gen) == 1 for gen in generators):  # QCC reaches the coset b ^ span
            assert np.array_equal(flips, linked)
        # a span mask that links no two reached states adds no entry
        for got, full in zip(entries, _entries(h, basis)):
            assert np.array_equal(got, full)
        return flips.size

    @PROPERTY
    @given(circuit_cases())
    def test_reads_h_at_its_masks_in_the_generator_span(self, case):
        h, b, generators, _ = case
        self.check_flips(h, b, generators)

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_low_filling_reads_no_more_than_h_masks(self, mapping):
        # 2 electrons in 12 orbitals: 144 determinants, but the singles'
        # masks alone span 2^22 flips, which must never be listed
        n = 24
        generators = uccsd_generator_paulis(uccsd_excitations(2, 12), n, mapping)
        rng = np.random.default_rng(RNG_SEED)
        terms = {p: 0.5 for gen in generators[::7] for p, _ in gen}
        terms.update(reference.random_hamiltonian(rng, n, 40).items())
        h = QubitHamiltonian(n, list(terms.items()))
        b = basis_index(hf_bitstring(2, n, mapping))
        assert 0 < self.check_flips(h, b, generators) <= np.unique(h.x).size


class TestOptimize:
    def test_single_generator_analytic_minimum(self):
        # E(tau) = cos(tau) - 0.5 sin(tau) has minimum -sqrt(1.25)
        h = QubitHamiltonian.from_labels({"Z": 1.0, "X": 0.5})
        ref = "0"
        gen = flip_representative(screen_generators(h, ref)[0][0], 1)
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
            ref = bitstring_label(5, 3)
            gens = [
                flip_representative(flip_mask({0}), 3),
                flip_representative(flip_mask({1, 2}), 3),
            ][:n_gen]
            e_zero = expectation(prepare_basis_state(3, ref), h)
            energy, taus = optimize_amplitudes(h, ref, gens)
            assert energy <= e_zero + 1e-12
            assert len(taus) == n_gen

    def test_two_generators_stay_variational_and_descend(self):
        h = QubitHamiltonian.from_labels(
            {"ZI": 0.8, "IZ": 0.6, "XX": 0.4, "YI": 0.3}
        )
        ref = prepare_basis_state(2, 0)
        gens = [flip_representative(0b11, 2), flip_representative(0b01, 2)]
        energy, taus = optimize_amplitudes(h, "00", gens)
        exact = exact_ground(h).energy
        e_zero = expectation(ref, h)
        assert exact - 1e-10 <= energy <= e_zero + 1e-12
        assert energy < e_zero - 0.5  # the sweeps must find real descent
        state = apply_rotation_sequence(ref, list(zip(gens, taus)))
        assert expectation(state, h) == pytest.approx(energy, abs=1e-12)

    def test_empty_generator_list_rejected(self):
        # no generators leave the reference energy <0|H|0>, not an error
        h = QubitHamiltonian.from_labels({"Z": 1.0, "X": 0.5})
        assert optimize_amplitudes(h, "0", []) == (1.0, [])

    def test_requires_basis_reference(self):
        h = QubitHamiltonian.from_labels({"XX": 1.0, "ZI": 0.5})
        for label in BAD_LABELS:
            with pytest.raises(ValueError):
                optimize_amplitudes(h, label, [flip_representative(0b01, 2)])

    def test_single_generator_beats_a_fine_grid(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        grid = np.linspace(-math.pi, math.pi, 720, endpoint=False)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            h = reference.random_hamiltonian(rng, n, 12)
            ref = bitstring_label(int(rng.integers(0, 1 << n)), n)
            flips = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            gen = flip_representative(flip_mask(flips), n)
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
                "00",
                [flip_representative(0b01, 2), flip_representative(0b10, 2)],
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
                    bitstring_label(int(rng.integers(0, 1 << n)), n),
                    [flip_representative(flip_mask(f), n)
                     for f in sorted(flip_sets, key=sorted)],
                )
            )
        for h, label, gens in cases:
            energy, taus = optimize_amplitudes(h, label, gens)
            ref = prepare_basis_state(h.n_qubits, label)
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
        trace = qcc_run(h, "00")
        assert trace.converged
        assert len(trace.iterations) == 0
        assert trace.final_energy == trace.initial_energy
        assert trace.reference == "00"

    def test_dimer_fixture_converges_in_one_iteration(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        trace = qcc_run(
            h, ref_label, e_inactive=prob.e_inactive, e_nuclear=prob.e_nuclear
        )
        assert trace.converged
        assert len(trace.iterations) == 1
        assert trace.parameters_used == 1
        gs = exact_ground(h, sector_basis("jw", h.n_qubits, 2))
        assert trace.final_energy == pytest.approx(gs.energy, abs=1e-9)
        assert total_energy(trace) == pytest.approx(
            gs.energy + prob.e_inactive + prob.e_nuclear, abs=1e-12
        )

    def test_recorded_iterations_gain_at_least_the_tolerance(self, chain4_problem):
        prob, h, ref_label = chain4_problem
        cfg = QccConfig(max_iterations=4, energy_tolerance=1e-6)
        trace = qcc_run(h, ref_label, cfg)
        assert len(trace.iterations) == 4
        energies = trace.energies
        for before, after in zip(energies, energies[1:]):
            assert before - after >= cfg.energy_tolerance
        for record in trace.iterations:
            assert record.term_count > 0
            assert len(record.generators) == 1
            assert record.gradients[0] > 0.0

    def test_tolerance_stop_discards_a_small_gain(self, chain4_problem):
        # with a coarse tolerance the run stops inside its budget on an
        # optimized gain below the tolerance, with flip groups still left
        _, h, ref_label = chain4_problem
        cfg = QccConfig(energy_tolerance=1e-3)
        trace = qcc_run(h, ref_label, cfg)
        assert trace.converged
        assert 0 < len(trace.iterations) < cfg.max_iterations
        dressed = h
        for record in trace.iterations:
            dressed = dress_sequence(dressed, record.generators)
        ranked = screen_generators(dressed, ref_label)
        assert ranked
        generators = [flip_representative(x, h.n_qubits) for x, _ in ranked[:cfg.generators_per_iteration]]
        e_next, _ = optimize_amplitudes(dressed, ref_label, generators)
        assert trace.final_energy - e_next < cfg.energy_tolerance

    def test_recorded_energies_match_the_statevector(self, chain4_problem):
        _, h, ref_label = chain4_problem
        ref = prepare_basis_state(h.n_qubits, ref_label)
        cfg = QccConfig(max_iterations=6)
        trace = qcc_run(h, ref_label, cfg)
        assert trace.initial_energy == pytest.approx(expectation(ref, h), abs=1e-10)
        dressed = h
        for record in trace.iterations:
            dressed = dress_sequence(dressed, record.generators)
            assert record.energy == pytest.approx(expectation(ref, dressed), abs=1e-10)

    def test_trace_json_round_trip(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        trace = qcc_run(h, ref_label, e_inactive=prob.e_inactive, e_nuclear=prob.e_nuclear)
        payload = trace.to_json_dict()
        assert payload["schema"] == "qcc-trace/1"
        again = QccTrace.from_json_dict(json.loads(json.dumps(payload)))
        assert again == trace
        # the reader is the one check of the schema, for every command that reads a trace
        for schema in (None, "bogus/9", ["qcc-trace/1"]):
            with pytest.raises(ValueError, match="expected schema qcc-trace/1"):
                QccTrace.from_json_dict(payload | {"schema": schema})
        with pytest.raises(ValueError, match="expected schema qcc-trace/1, got None"):
            QccTrace.from_json_dict({k: v for k, v in payload.items() if k != "schema"})

    def test_energies_and_generators_views(self, dimer_problem):
        _, h, ref_label = dimer_problem
        trace = qcc_run(h, ref_label)
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
        # counts must be integers, and the tolerance a finite number
        for bad in (
            {"max_iterations": 2.5},
            {"generators_per_iteration": 1.5},
            {"max_iterations": True},
            {"energy_tolerance": math.nan},
            {"energy_tolerance": math.inf},
            {"energy_tolerance": 10**400},  # past float64: no OverflowError
            {"energy_tolerance": -10**400},
        ):
            with pytest.raises(ValueError):
                QccConfig(**bad)
        # the prune is pauli.DEFAULT_PRUNE, not a setting
        for value in (math.inf, math.nan, "0"):
            with pytest.raises(ValueError, match="unknown config keys"):
                QccConfig.from_mapping({"prune_threshold": value})

    def test_from_mapping_rejects_unknown_keys(self):
        cfg = QccConfig.from_mapping({"max_iterations": 7})
        assert cfg.max_iterations == 7
        # grid_points: a removed amplitude-search setting; seed: the shot
        # seed, which the manifest reads itself
        for unknown in ({"max_iter": 7}, {"grid_points": 48}, {"seed": 3}):
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
        trace = qcc_run(h, ref_label)
        with pytest.raises(ExtrapolationError):
            extrapolate(trace)

    def test_rejects_non_positive_differences(self):
        energies = geometric_energies(-1.0, -0.1, 0.0, 46)
        # an uphill step, a NaN energy, and an infinite drop at the window's end
        for i, value in ((20, energies[19] + 0.01), (20, math.nan), (40, -math.inf)):
            with pytest.raises(ExtrapolationError) as err:
                extrapolate(energies[:i] + [value] + energies[i + 1:])
            assert i in err.value.violations or i + 1 in err.value.violations

    def test_rejects_growing_differences(self):
        energies = [-(10.0 ** (0.05 * i)) for i in range(46)]
        with pytest.raises(ExtrapolationError, match="not decaying"):
            extrapolate(energies)

    def test_rejects_bad_window_settings(self):
        energies = geometric_energies(-1.0, -0.1, 0.0, 20)
        with pytest.raises(ExtrapolationError, match="needs") as err:
            extrapolate(energies)
        assert not isinstance(err.value, FitRequestError)
        with pytest.raises(FitRequestError):
            extrapolate(energies, window=2)
        with pytest.raises(FitRequestError):
            extrapolate(energies, discard=-1)
        with pytest.raises(FitRequestError):
            extrapolate(energies, thresholds=(1e-3, 0.0))

    @pytest.mark.parametrize(
        "energies",
        [
            # differences 1, 1, 1 - 2**-53: the slope is so small that 10^-a rounds to 1
            [3.0, 2.0, 1.0, 1.1102230246251565e-16],
            # slope about -314: 10^-a overflows, so b would be -inf
            [1e308, 1e-100, 1e-320, 0.0],
            # growing by a factor 10^310 per step: 10^a itself overflows
            [0.0, -1e-320, -1e-10, -1e300],
        ],
        ids=["ratio-rounds-to-one", "intercept-overflows", "ratio-overflows"],
    )
    def test_refuses_fits_float64_cannot_extrapolate(self, energies):
        # RuntimeWarnings are errors under the suite's filter, so a refusal
        # must not pass through a numpy overflow either
        with pytest.raises(ExtrapolationError):
            extrapolate(energies, discard=0, window=3)

    def test_fitted_curve_follows_the_model(self):
        e0, a, b = -2.0, -0.1, 0.5
        energies = geometric_energies(e0, a, b, 50)
        result = extrapolate(energies, thresholds=(1.6e-3, 1.6e-4, 1e-2))
        for i in range(1, 50):
            assert result.fitted_energy(i) == pytest.approx(energies[i], rel=1e-12)
            assert result.fitted_difference(i) == pytest.approx(
                energies[i - 1] - energies[i], rel=1e-9
            )
        for t, i in result.iter_at_threshold.items():
            assert result.fitted_difference(i) <= t < result.fitted_difference(i - 1)


def uccsd_setup(load_problem, name, n_electrons, mapping):
    """(H, reference label, excitation generators) of a half-filled fixture,
    every orbital active."""
    prob, h, ref_label = load_problem(name, n_electrons, n_electrons, mapping)
    exc = uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
    generators = uccsd_generator_paulis(exc, prob.n_spin_orbitals, mapping)
    return h, ref_label, generators


def uccsd_energy(h, ref, generators, taus):
    """Circuit energy with the layout optimize_uccsd documents."""
    pairs = [(p, -2.0 * t * c) for t, ts in zip(taus, generators) for p, c in ts]
    state = prepare_basis_state(h.n_qubits, ref)
    return expectation(apply_rotation_sequence(state, pairs[::-1]), h)


class TestUccsdOptimization:
    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    @pytest.mark.parametrize(
        "name, n_electrons", [("dimer_d1.00.fcidump", 2), ("chain4_d1.00.fcidump", 4)]
    )
    def test_five_point_curve_is_exact(self, load_problem, name, n_electrons, mapping):
        # Each generator G satisfies G^3 = G, so along one amplitude the
        # energy has frequencies 0, 1 and 2 only, fixed by five samples. The
        # energy is the kernel optimize_uccsd minimizes (TestCircuitEnergy).
        h, ref, generators = uccsd_setup(load_problem, name, n_electrons, mapping)
        energy = _circuit_energy(h, basis_index(ref), generators)
        rng = np.random.default_rng(RNG_SEED)
        taus = rng.uniform(-math.pi, math.pi, len(generators))
        base = energy(taus)
        for j in range(len(generators)):

            @functools.cache  # the step samples the same four shifts again
            def energy_at(d):
                shifted = taus.copy()
                shifted[j] += d
                return energy(shifted)

            samples = [base] + [energy_at(2.0 * math.pi * k / 5) for k in range(1, 5)]
            c0, c1, c2 = np.fft.rfft(samples) / 5

            def model(d):
                return c0.real + 2.0 * (c1 * np.exp(1j * d) + c2 * np.exp(2j * d)).real

            d = rng.uniform(-math.pi, math.pi)
            assert model(d) == pytest.approx(energy_at(d), abs=1e-10)
            _, d_min, e_min = _two_harmonic_step(energy_at, base)
            assert e_min == pytest.approx(energy_at(d_min), abs=1e-10)
            assert e_min <= model(np.linspace(-math.pi, math.pi, 3601)).min() + 1e-12

    def test_chain4_uccsd_near_sector_fci(self, load_problem):
        h, ref, generators = uccsd_setup(load_problem, "chain4_d1.00.fcidump", 4, "jw")
        energy, amplitudes = optimize_uccsd(h, ref, generators)
        gs = exact_ground(h, sector_basis("jw", h.n_qubits, 4))
        assert gs.energy <= energy <= gs.energy + 1e-4
        assert energy == pytest.approx(uccsd_energy(h, ref, generators, amplitudes), abs=1e-12)
        assert all(-math.pi <= t <= math.pi for t in amplitudes)

    def test_dimer_uccsd_reaches_exact_ground(self, dimer_problem):
        prob, h, ref_label = dimer_problem
        exc = uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
        generators = uccsd_generator_paulis(exc, prob.n_spin_orbitals, "jw")
        energy, amplitudes = optimize_uccsd(h, ref_label, generators)
        gs = exact_ground(h, sector_basis("jw", h.n_qubits, 2))
        assert energy == pytest.approx(gs.energy, abs=1e-6)
        assert len(amplitudes) == 3

    def test_flat_curves_keep_every_amplitude(self, dimer_problem):
        # on a constant Hamiltonian every amplitude's curve is flat, so each
        # stays at zero and the energy is the constant
        prob, _, ref_label = dimer_problem
        exc = uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
        generators = uccsd_generator_paulis(exc, prob.n_spin_orbitals, "jw")
        h = QubitHamiltonian.from_labels({"IIII": 0.5})
        assert optimize_uccsd(h, ref_label, generators) == (0.5, [0.0, 0.0, 0.0])

    def test_empty_generators_rejected(self):
        # an active space without excitations keeps the reference energy
        h = QubitHamiltonian.from_labels({"Z": 1.0, "X": 0.5})
        assert optimize_uccsd(h, "0", []) == (1.0, [])

    def test_requires_basis_reference(self, dimer_problem):
        prob, h, _ = dimer_problem
        exc = uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
        generators = uccsd_generator_paulis(exc, prob.n_spin_orbitals, "jw")
        for label in ("11", "11000", "11o0"):
            with pytest.raises(ValueError):
                optimize_uccsd(h, label, generators)


class TestAnsatzComparison:
    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_chain6_qcc_and_uccsd(self, load_problem, mapping):
        # The paper's CAS(6,6) comparison on the 12-qubit stand-in: UCCSD's
        # 117 amplitudes end within 0.1 mHa of the sector ground state, and
        # one-generator QCC passes 1.6 mHa in at most 40 iterations.
        h, ref, generators = uccsd_setup(load_problem, "chain6_d1.00.fcidump", 6, mapping)
        e_fci = exact_ground(h, sector_basis(mapping, h.n_qubits, 6)).energy
        e_uccsd, amplitudes = optimize_uccsd(h, ref, generators)
        assert len(amplitudes) == 117
        assert e_fci <= e_uccsd <= e_fci + 1e-4
        cfg = QccConfig(max_iterations=40, energy_tolerance=1e-12)
        energies = qcc_run(h, ref, cfg).energies
        assert energies[-1] < e_fci + 1.6e-3
        assert min(energies) >= e_fci - 1e-10
