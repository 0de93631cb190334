"""Release gate: every check below must hold at the stated tolerance.

Each test prints a single `[criterion N] PASS/FAIL` line (run pytest with -s
to see them) before asserting, so a red run still reports every verdict.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import reference
from conftest import build_problem
from qccvqe.chem import occupation_decoder, uccsd_excitations
from qccvqe.cli import main
from qccvqe.oracle import exact_ground, to_dense
from qccvqe.pauli import PauliString, QubitHamiltonian, dress_sequence
from qccvqe.simulator import (
    apply_rotation_sequence,
    bitstring_label,
    expectation,
    group_qwc,
    prepare_basis_state,
    sample_energy,
)
from qccvqe.solver import (
    QccConfig,
    extrapolate,
    flip_representative,
    qcc_run,
    screen_generators,
)

CHEMICAL_ACCURACY = 1.6e-3

DIMER_FIXTURES = ["dimer_d0.80.fcidump", "dimer_d1.00.fcidump", "dimer_d1.20.fcidump"]
CHAIN_FIXTURES = ["chain4_d0.90.fcidump", "chain4_d1.00.fcidump", "chain4_d1.10.fcidump"]


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")


def sector_ground(h: QubitHamiltonian, n_electrons: int, mapping: str = "jordan_wigner"):
    return exact_ground(
        h,
        n_electrons=n_electrons,
        occupation_of=occupation_decoder(mapping, h.n_qubits),
    )


def analytic_gradient(h: QubitHamiltonian, state, generator: PauliString) -> float:
    """Slope of <e^{+i tau P/2} H e^{-i tau P/2}> at tau = 0: -Im<psi|P H|psi>."""
    h_mat = reference.ham_matrix(h)
    p_mat = reference.label_matrix(generator.to_label())
    vec = state.amplitudes
    return float(-np.imag(np.vdot(vec, p_mat @ (h_mat @ vec))))


class TestCriterion1:
    def test_uccsd_parameter_counts(self):
        counts = {
            (2, 2): uccsd_excitations(2, 2).parameter_count,
            (4, 4): uccsd_excitations(4, 4).parameter_count,
            (6, 6): uccsd_excitations(6, 6).parameter_count,
        }
        expected = {(2, 2): 3, (4, 4): 26, (6, 6): 117}
        ok = counts == expected
        report(1, ok, f"uccsd parameter counts {counts} (expected {expected})")
        assert counts == expected


class TestCriterion2:
    def test_two_orbital_fixtures_converge_in_one_iteration(self):
        start = time.monotonic()
        details = []
        ok = True
        for name in DIMER_FIXTURES:
            prob, h, ref_label = build_problem(name, 2, 2)
            cfg = QccConfig(generators_per_iteration=1, max_iterations=20)
            trace = qcc_run(h, ref_label, cfg)
            exact = sector_ground(h, 2).energy
            err = abs(trace.final_energy - exact)
            one_iter = len(trace.iterations) == 1
            ok = ok and one_iter and err < CHEMICAL_ACCURACY
            details.append(f"{name}: iters={len(trace.iterations)} err={err:.2e}")
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 1.0
        report(2, ok, f"{'; '.join(details)}; elapsed={elapsed:.2f}s (<1s)")
        assert ok


class TestCriterion3:
    def test_eight_qubit_fixture_reaches_chemical_accuracy(self):
        start = time.monotonic()
        prob, h, ref_label = build_problem("chain4_d1.00.fcidump", 4, 4)
        cfg = QccConfig(generators_per_iteration=1, max_iterations=10)
        trace = qcc_run(h, ref_label, cfg)
        exact = sector_ground(h, 4).energy
        errors = [abs(e - exact) for e in trace.energies[1:]]
        first_ok = next(
            (i + 1 for i, e in enumerate(errors) if e < CHEMICAL_ACCURACY), None
        )
        elapsed = time.monotonic() - start
        ok = first_ok is not None and first_ok <= 10 and elapsed < 30.0
        report(
            3,
            ok,
            f"chain4_d1.00 reaches {CHEMICAL_ACCURACY} Ha after "
            f"{first_ok} iterations (<=10), final err={errors[-1]:.2e}, "
            f"elapsed={elapsed:.1f}s (<30s)",
        )
        assert ok


class TestCriterion4:
    def test_screened_gradients_match_finite_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(40404)
        worst = 0.0
        checked = 0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            h = reference.random_hamiltonian(rng, n, n_terms=int(rng.integers(4, 10)))
            index = int(rng.integers(0, 2**n))
            ref = prepare_basis_state(n, index)
            ranked = screen_generators(h, bitstring_label(index, n))
            h_mat = reference.ham_matrix(h)
            vec = ref.amplitudes
            for x_mask, grad in ranked:
                p_mat = reference.label_matrix(flip_representative(x_mask, n).to_label())

                def energy_at(tau, p_mat=p_mat):
                    u = reference.rotation_matrix(p_mat, tau)
                    psi = u @ vec
                    return float(np.real(np.vdot(psi, h_mat @ psi)))

                fd = reference.centered_difference(energy_at)
                worst = max(worst, abs(abs(fd) - grad))
                checked += 1
        elapsed = time.monotonic() - start
        ok = worst < 1e-6 and elapsed < 60.0
        report(
            4,
            ok,
            f"{checked} screened gradients across 50 random Hamiltonians, "
            f"worst |FD - screen| = {worst:.2e} (<1e-6), "
            f"elapsed={elapsed:.1f}s (<60s)",
        )
        assert ok


class TestCriterion5:
    def test_dressing_equals_circuit_rotation(self):
        start = time.monotonic()
        rng = np.random.default_rng(50505)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 11))
            h = reference.random_hamiltonian(rng, n, n_terms=int(rng.integers(2, 7)))
            depth = int(rng.integers(1, 5))
            pairs = [
                (
                    PauliString.from_label(reference.random_label(rng, n)),
                    float(rng.uniform(-math.pi, math.pi)),
                )
                for _ in range(depth)
            ]
            index = int(rng.integers(0, 2**n))
            ref = prepare_basis_state(n, index)
            dressed = dress_sequence(h, pairs, prune=0.0)
            via_dressing = expectation(ref, dressed)
            state = apply_rotation_sequence(ref, pairs)
            via_circuit = expectation(state, h)
            worst = max(worst, abs(via_dressing - via_circuit))
        elapsed = time.monotonic() - start
        ok = worst < 1e-10 and elapsed < 60.0
        report(
            5,
            ok,
            f"100 dress-vs-circuit expectations, worst gap = {worst:.2e} "
            f"(<1e-10), elapsed={elapsed:.1f}s (<60s)",
        )
        assert ok


class TestCriterion6:
    def test_dressing_preserves_spectra(self):
        start = time.monotonic()
        rng = np.random.default_rng(60606)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 7))
            h = reference.random_hamiltonian(rng, n, n_terms=int(rng.integers(2, 7)))
            depth = int(rng.integers(1, 4))
            pairs = [
                (
                    PauliString.from_label(reference.random_label(rng, n)),
                    float(rng.uniform(-math.pi, math.pi)),
                )
                for _ in range(depth)
            ]
            dressed = dress_sequence(h, pairs, prune=0.0)
            before = np.linalg.eigvalsh(to_dense(h))
            after = np.linalg.eigvalsh(to_dense(dressed))
            worst = max(worst, float(np.max(np.abs(before - after))))
        elapsed = time.monotonic() - start
        ok = worst < 1e-10 and elapsed < 30.0
        report(
            6,
            ok,
            f"20 spectra before/after dressing, worst eigenvalue shift = "
            f"{worst:.2e} (<1e-10), elapsed={elapsed:.1f}s (<30s)",
        )
        assert ok


class TestCriterion7:
    def test_flip_set_members_share_gradient_magnitude(self):
        start = time.monotonic()
        rng = np.random.default_rng(70707)
        worst = 0.0
        groups_checked = 0
        for _ in range(12):
            n = int(rng.integers(2, 7))
            h = reference.random_hamiltonian(rng, n, n_terms=int(rng.integers(3, 8)))
            index = int(rng.integers(0, 2**n))
            ref = prepare_basis_state(n, index)
            for x_mask, grad in screen_generators(h, bitstring_label(index, n)):
                flips = [q for q in range(n) if (x_mask >> q) & 1]
                members = odd_y_members(flips, n)
                grads = [
                    abs(analytic_gradient(h, ref, m)) for m in members
                ]
                spread = max(grads) - min(grads)
                worst = max(worst, spread)
                worst = max(worst, abs(grads[0] - grad))
                groups_checked += 1
        elapsed = time.monotonic() - start
        ok = worst < 1e-10 and groups_checked > 0 and elapsed < 10.0
        report(
            7,
            ok,
            f"{groups_checked} flip sets, worst |gradient| spread across "
            f"odd-Y members = {worst:.2e} (<1e-10), elapsed={elapsed:.1f}s (<10s)",
        )
        assert ok


def odd_y_members(flips: list[int], n: int) -> list[PauliString]:
    """Every X/Y string on the flip set with an odd number of Y letters."""
    members = []
    for mask in range(2 ** len(flips)):
        if bin(mask).count("1") % 2 == 0:
            continue
        label = ["I"] * n
        for bit, q in enumerate(flips):
            label[q] = "Y" if (mask >> bit) & 1 else "X"
        members.append(PauliString.from_label("".join(label)))
    return members


class TestCriterion8:
    def test_extrapolation_recovers_planted_limit(self, tmp_path):
        start = time.monotonic()
        e0_true, a_true, b_true = -7.5, -0.1, 0.3
        rng = np.random.default_rng(80808)
        energies = [
            e0_true + 10.0 ** (a_true * i + b_true) + float(rng.normal(0, 1e-8))
            for i in range(46)
        ]
        payload = {
            "schema": "qcc-trace/1",
            "n_qubits": 4,
            "reference": "1100",
            "initial_energy": energies[0],
            "final_energy": energies[-1],
            "converged": False,
            "iterations": [
                {
                    "generators": [{"pauli": "YXII", "tau": 0.05}],
                    "energy": e,
                    "term_count": 9,
                    "gradients": [0.1],
                }
                for e in energies[1:]
            ],
        }
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(payload))
        out_path = tmp_path / "fit.json"
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "extrapolate",
                str(trace_path),
                "--discard",
                "5",
                "--window",
                "35",
                "--output",
                str(out_path),
            ],
            catch_exceptions=False,
        )
        fit = json.loads(out_path.read_text()) if result.exit_code == 0 else {}
        err = abs(fit.get("e0_estimate", math.inf) - e0_true)
        elapsed = time.monotonic() - start
        ok = result.exit_code == 0 and err < 1e-6 and elapsed < 1.0
        report(
            8,
            ok,
            f"planted limit {e0_true}, recovered within {err:.2e} (<1e-6), "
            f"elapsed={elapsed:.2f}s (<1s)",
        )
        assert ok


class TestCriterion9:
    def test_sampling_is_unbiased_with_root_shot_scaling(self):
        start = time.monotonic()
        prob, h, ref_label = build_problem("dimer_d1.00.fcidump", 2, 2)
        ref = prepare_basis_state(h.n_qubits, ref_label)
        trace = qcc_run(h, ref_label, QccConfig())
        state = apply_rotation_sequence(ref, trace.all_generators)
        grouping = group_qwc(h)
        exact = expectation(state, h)

        def spread(shots: int) -> tuple[float, float]:
            estimates = [
                sample_energy(state, grouping, shots, seed).energy
                for seed in range(100)
            ]
            return float(np.mean(estimates)), float(np.std(estimates, ddof=1))

        mean_small, std_small = spread(10_000)
        mean_large, std_large = spread(40_000)
        bias = abs(mean_small - exact)
        bias_limit = 3.0 * std_small / math.sqrt(100)
        ratio = std_small / std_large if std_large > 0 else math.inf
        ratio_ok = abs(ratio - 2.0) <= 0.4  # 4x shots halves the error, +-20%
        elapsed = time.monotonic() - start
        ok = bias <= bias_limit and ratio_ok and elapsed < 120.0
        report(
            9,
            ok,
            f"bias {bias:.2e} <= {bias_limit:.2e} (3 pooled SE); "
            f"std ratio 1e4/4e4 = {ratio:.3f} (2.0 +- 0.4); "
            f"elapsed={elapsed:.1f}s (<120s)",
        )
        assert ok


class TestCriterion10:
    def test_mappings_agree_on_ground_energies(self):
        start = time.monotonic()
        cases = [
            (DIMER_FIXTURES, 2, 2),
            (CHAIN_FIXTURES, 4, 4),
        ]
        worst = 0.0
        labels = []
        for names, n_el, n_orb in cases:
            for name in names:
                _, h_jw, _ = build_problem(name, n_el, n_orb, "jordan_wigner")
                _, h_par, _ = build_problem(name, n_el, n_orb, "parity")
                e_jw = sector_ground(h_jw, n_el, "jordan_wigner").energy
                e_par = sector_ground(h_par, n_el, "parity").energy
                worst = max(worst, abs(e_jw - e_par))
                labels.append(name)
        elapsed = time.monotonic() - start
        ok = worst < 1e-10 and elapsed < 10.0
        report(
            10,
            ok,
            f"{len(labels)} fixtures, worst JW-vs-parity ground gap = "
            f"{worst:.2e} (<1e-10), elapsed={elapsed:.1f}s (<10s)",
        )
        assert ok


class TestCriterion11:
    def test_batched_generators_converge_consistently(self):
        start = time.monotonic()
        prob, h, ref_label = build_problem("dimer_d1.00.fcidump", 2, 2)
        exact = sector_ground(h, 2).energy
        term_counts = {}
        errors = {}
        for n_gen in (1, 2, 4):
            cfg = QccConfig(generators_per_iteration=n_gen, max_iterations=20)
            trace = qcc_run(h, ref_label, cfg)
            errors[n_gen] = abs(trace.final_energy - exact)
            term_counts[n_gen] = (
                trace.iterations[-1].term_count if trace.iterations else len(h)
            )
        lo, hi = min(term_counts.values()), max(term_counts.values())
        within_accuracy = all(e < CHEMICAL_ACCURACY for e in errors.values())
        growth_ok = hi <= 2 * lo
        elapsed = time.monotonic() - start
        ok = within_accuracy and growth_ok and elapsed < 10.0
        report(
            11,
            ok,
            f"errors by batch size {({k: f'{v:.1e}' for k, v in errors.items()})}, "
            f"dressed term counts {term_counts} (max <= 2x min), "
            f"elapsed={elapsed:.1f}s (<10s)",
        )
        assert ok


class TestCriterion12:
    def test_active_space_energy_matches_full_space_oracle(self, fixtures_dir):
        start = time.monotonic()
        prob, h, ref_label = build_problem("chain4_d1.00.fcidump", 4, 4)
        assert prob.e_inactive == 0.0  # the full window freezes nothing
        e_active = sector_ground(h, 4).energy
        via_package = e_active + prob.e_inactive + prob.e_nuclear

        from qccvqe.chem import parse_fcidump

        ints = parse_fcidump((fixtures_dir / "chain4_d1.00.fcidump").read_text())
        mat = reference.fermion_matrix(
            2 * ints.n_orbitals, reference.integral_terms(ints)
        )
        occupations = np.array(
            [i.bit_count() for i in range(mat.shape[0])]
        )
        sector = np.where(occupations == 4)[0]
        block = mat[np.ix_(sector, sector)]
        e_direct = float(np.linalg.eigvalsh(block)[0]) + ints.e_nuclear
        gap = abs(via_package - e_direct)
        elapsed = time.monotonic() - start
        ok = gap < 1e-9 and elapsed < 10.0
        report(
            12,
            ok,
            f"package route {via_package:.10f} vs determinant oracle "
            f"{e_direct:.10f}, gap = {gap:.2e} (<1e-9), "
            f"elapsed={elapsed:.1f}s (<10s)",
        )
        assert ok
