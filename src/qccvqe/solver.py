"""Iterative qubit-coupled-cluster solver with Hamiltonian dressing.

Each iteration screens candidate generators by the exact energy gradient at
zero amplitude (one representative per flip-index group), optimizes the
selected amplitudes over the circuit energy, then absorbs the rotations
into the Hamiltonian by conjugation so the next iteration restarts from the
fixed reference state. A log-linear fit of successive energy differences
extrapolates the converged energy from a finite trace.

The reference is one determinant, given as a basis-state label (qubit 0
leftmost). QCC rotations and UCCSD excitations each map a basis state to one
partner, so every energy of either ansatz is the quadratic form of H's
entries (the simulator's entries kernel) on the determinants the circuit
reaches, and no 2^n vector is built.

QCC and the UCCSD baseline share exact coordinate sweeps: each amplitude's
energy curve, a trigonometric polynomial of degree one (QCC) or two
(excitation), is rebuilt from 3 or 5 evaluations and minimized in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .pauli import PauliString, QubitHamiltonian, _json, dress_sequence
from .simulator import _entries, _pair_step, _pauli_phase_vector, _quadratic_form, basis_index

# Unused here; perfbench/spans.py wraps them by name until ROADMAP item 1 step 1.
from .simulator import apply_rotation_sequence, expectation  # noqa: F401

__all__ = [
    "GRAD_EPS",
    "QccConfig",
    "IterationRecord",
    "QccTrace",
    "ExtrapolationResult",
    "ExtrapolationError",
    "FitRequestError",
    "flip_representative",
    "screen_generators",
    "optimize_amplitudes",
    "qcc_run",
    "total_energy",
    "extrapolate",
    "optimize_uccsd",
]

# Gradient magnitudes below this are treated as exact zeros when ranking
# candidate generators; magnitudes that round to the same multiple of it rank
# as ties, so rounding noise cannot reorder equal gradients.
GRAD_EPS = 1e-12

# Several generators are swept coordinate by coordinate until one sweep lowers
# the energy by no more than the tolerance, or the sweep cap is reached.
_SWEEP_TOLERANCE = 1e-13
_MAX_SWEEPS = 200


@dataclass(frozen=True)
class QccConfig:
    """Knobs for one solver run; defaults suit the shipped fixtures."""

    generators_per_iteration: int = 1
    max_iterations: int = 50
    energy_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("generators_per_iteration", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        value = self.energy_tolerance
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"energy_tolerance must be a number, got {value!r}")
        if not 0 < value <= sys.float_info.max:  # NaN fails both; 10**400 is past float64
            raise ValueError(f"energy_tolerance must be finite and positive, got {value!r}")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "QccConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; valid keys: {sorted(known)}"
            )
        return cls(**dict(data))


def flip_representative(x_mask: int, n_qubits: int) -> PauliString:
    """Canonical odd-Y-count member of the group flipping the qubits of
    x_mask: Y on the lowest flipped qubit, X on the others."""
    if not x_mask:
        raise ValueError("flip mask must be non-zero")
    return PauliString(n_qubits, x_mask, x_mask & -x_mask)


def _circuit_energy(
    h: QubitHamiltonian,
    b: int,
    generators: Sequence[Sequence[tuple[PauliString, float]]],
):
    """energy(ts) = <b|U^dag H U|b> for U = exp(i t_k G_k) ... exp(i t_1 G_1).

    Each generator rotates the pairs of states it couples (the simulator's
    pair step). The reached states, each generator's rotation on them and
    H's entries there are built once, at H's masks in the GF(2) span of the
    generators' masks, which holds the XOR of any two reached states.
    """
    basis = np.array([b], dtype=np.uint64)
    for gen in generators:
        basis = np.unique(np.concatenate([basis, _pair_step(gen, basis)[0]]), return_index=True)[0]
    rotations = [_pair_step(gen, basis)[1] for gen in generators]
    flips = np.unique(h.x, return_index=True)[0]
    left = np.concatenate([flips, np.array([gen[0][0].x_mask for gen in generators], np.uint64)])
    for k in range(flips.size, left.size):  # min(m, m ^ x) clears x's leading bit in m
        if x := left[k]:  # the k-th generator's mask, reduced by the earlier ones
            left = np.minimum(left, left ^ x)
    rows, cols, vals = _entries(h, basis, flips[left[:flips.size] == 0])

    def energy(ts: Sequence[float]) -> float:
        amp = (basis == np.uint64(b)).astype(np.complex128)
        for rotate, t in zip(rotations, ts, strict=True):
            rotate(amp, t)
        return float(_quadratic_form(amp, rows, cols, vals).real)

    return energy


def screen_generators(h: QubitHamiltonian, reference: str) -> list[tuple[int, float]]:
    """Rank flip-index groups by exact zero-amplitude energy gradient.

    For the reference label's basis state |b> and the representative R of
    flip mask x, only the Hamiltonian terms flipping x contribute to dE/dtau
    at tau = 0, which is Im<b|P R|b> for their sum P = sum_k c_k P_k. With
    P_k|b> = phi_k |b ^ x> and R|b> = phi_R |b ^ x>, that is
    Im(phi_R * conj(sum_k c_k phi_k)), so one phase per term and one sum per
    x-mask give every gradient. In canonical order the terms flipping no
    qubit come first and each nonzero x-mask is one run after them. Groups
    with zero gradient are dropped; the rest are returned as (x_mask,
    |gradient|) pairs by descending magnitude rounded to a multiple of
    GRAD_EPS, ties by ascending mask (the order of the representatives'
    canonical keys, as R's z-mask follows from x).
    """
    b = np.uint64(basis_index(reference, h.n_qubits))
    run = np.diff(h.x, prepend=np.uint64(0)) != 0
    column = h.coeff * _pauli_phase_vector(h.x, h.z, b)
    group = np.cumsum(run)  # 0 for the terms flipping no qubit, k for the k-th run
    sums = np.bincount(group, column.real) + 1j * np.bincount(group, column.imag)
    x_masks = h.x[run]
    # flip_representative's z-mask: Y on the lowest flipped qubit only.
    rep_z = x_masks & (~x_masks + np.uint64(1))
    grads = np.abs(np.imag(_pauli_phase_vector(x_masks, rep_z, b) * np.conj(sums[1:])))
    keep = grads > GRAD_EPS
    x_masks, grads = x_masks[keep], grads[keep]
    order = np.lexsort((x_masks, -np.round(grads / GRAD_EPS)))
    return list(zip(x_masks[order].tolist(), grads[order].tolist()))


def _rotosolve_step(energy_at, e_cur: float) -> tuple[float, float, float]:
    """Generator P with P^2 = 1: E(d) = a + b cos d + c sin d (Rotosolve).

    E(+-pi/2) fix a and c, E(0) fixes b, and the minimum a - hypot(b, c) is
    at d = atan2(-c, -b).
    """
    e_plus, e_minus = energy_at(0.5 * math.pi), energy_at(-0.5 * math.pi)
    a, c = 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus)
    b = e_cur - a
    swing = math.hypot(b, c)
    return swing, math.atan2(-c, -b), a - swing


def _two_harmonic_step(energy_at, e_cur: float) -> tuple[float, float, float]:
    """Excitation generator G with G^3 = G: E(d) = c0 + 2 Re(c1 u + c2 u^2).

    E at d = 2 pi k / 5, k = 0..4, gives c0, c1, c2 exactly by rfft. The
    critical points u = e^{id} solve 2i c2 u^4 + i c1 u^3 - i conj(c1) u -
    2i conj(c2) = 0; the minimum is the lowest model value at their angles.
    Of values within _SWEEP_TOLERANCE of it, d = 0 included, the shortest
    move wins, since E(d + pi) = E(d) along an excitation on the reference.
    A curve that is not finite raises ValueError before the root step.
    """
    samples = [e_cur] + [energy_at(2.0 * math.pi * k / 5) for k in range(1, 5)]
    c0, c1, c2 = np.fft.rfft(samples) / 5
    swing = math.hypot(abs(c1), abs(c2))
    if not math.isfinite(swing):
        raise ValueError("an energy along the sweep is NaN or infinite")
    if swing <= GRAD_EPS:
        return swing, 0.0, e_cur
    roots = np.roots([2j * c2, 1j * c1, 0, -1j * np.conj(c1), -2j * np.conj(c2)])
    d = np.append(0.0, np.angle(roots))
    model = c0.real + 2.0 * (c1 * np.exp(1j * d) + c2 * np.exp(2j * d)).real
    best = np.argmin(np.where(model <= model.min() + _SWEEP_TOLERANCE, np.abs(d), np.inf))
    return swing, float(d[best]), float(model[best])


def _coordinate_sweeps(n: int, energy, step) -> tuple[float, list[float]]:
    """Minimize energy(taus) over n amplitudes, one exact update at a time.

    step(energy_at, E(0)) rebuilds one amplitude's curve from energy_at(d),
    the energy with it moved by d, and returns (swing, d_min, E(d_min)).
    Sweeps start from zero and stop when one gains at most _SWEEP_TOLERANCE
    (one amplitude needs one) or after _MAX_SWEEPS. A flat curve (swing <=
    GRAD_EPS) keeps its amplitude, since the angle of rounding noise would
    unsettle the others. The zero point wins if nothing is lower; amplitudes
    are returned in [-pi, pi]. With no amplitudes, the result is (E([]), []).
    """
    taus = [0.0] * n
    e_zero = e_cur = energy(taus)
    for _ in range(_MAX_SWEEPS):
        e_start = e_cur
        for j in range(n):
            swing, d, e_min = step(
                lambda shift: energy([*taus[:j], taus[j] + shift, *taus[j + 1:]]), e_cur
            )
            if swing > GRAD_EPS:
                taus[j] = math.remainder(taus[j] + d, 2.0 * math.pi)
                e_cur = e_min
        if n == 1 or e_start - e_cur <= _SWEEP_TOLERANCE:
            break
    if e_cur < e_zero:
        return e_cur, taus
    return e_zero, [0.0] * n


def optimize_amplitudes(
    h: QubitHamiltonian,
    reference: str,
    generators: Sequence[PauliString],
) -> tuple[float, list[float]]:
    """Minimize the circuit energy over the amplitudes by Rotosolve sweeps.

    Energies come from the <= 2^k basis states that the circuit reaches
    from the reference label's. The result never exceeds the reference
    energy, which it is for an empty generator list.
    """
    b = basis_index(reference, h.n_qubits)
    # exp(-i tau P / 2) is exp(i t P) at t = -tau / 2; the last generator acts first
    energy = _circuit_energy(h, b, [[(p, 1.0)] for p in reversed(generators)])
    return _coordinate_sweeps(
        len(generators), lambda taus: energy([-0.5 * t for t in reversed(taus)]), _rotosolve_step
    )


def _json_rotations(
    items: Sequence[Mapping], n_qubits: int | None = None
) -> tuple[tuple[PauliString, float], ...]:
    """(generator, angle) pairs of a {"pauli", "tau"} list, each generator
    n_qubits wide when n_qubits is given."""
    pairs = tuple((PauliString.from_label(g["pauli"]), _json(float, g["tau"]))
                  for g in _json(list, items))
    if n_qubits is not None and any(p.n_qubits != n_qubits for p, _ in pairs):
        raise ValueError(f"every generator must act on {n_qubits} qubits")
    return pairs


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration: chosen rotations and the post-iteration state."""

    generators: tuple[tuple[PauliString, float], ...]
    energy: float
    term_count: int
    gradients: tuple[float, ...]


@dataclass(frozen=True)
class QccTrace:
    """Full account of a solver run, serializable for plotting and replay."""

    n_qubits: int
    reference: str
    iterations: tuple[IterationRecord, ...]
    initial_energy: float
    final_energy: float
    converged: bool
    e_inactive: float = 0.0
    e_nuclear: float = 0.0

    @property
    def energies(self) -> list[float]:
        """Active-space energy after 0, 1, ... iterations."""
        return [self.initial_energy] + [it.energy for it in self.iterations]

    @property
    def parameters_used(self) -> int:
        return sum(len(it.generators) for it in self.iterations)

    @property
    def all_generators(self) -> list[tuple[PauliString, float]]:
        """Concatenated (generator, amplitude) pairs in dressing order."""
        return [pair for it in self.iterations for pair in it.generators]

    def to_json_dict(self) -> dict:
        return {
            "schema": "qcc-trace/1",
            "n_qubits": self.n_qubits,
            "reference": self.reference,
            "initial_energy": self.initial_energy,
            "final_energy": self.final_energy,
            "converged": self.converged,
            "e_inactive": self.e_inactive,
            "e_nuclear": self.e_nuclear,
            "parameters_used": self.parameters_used,
            "iterations": [
                {
                    "generators": [
                        {"pauli": p.to_label(), "tau": tau}
                        for p, tau in it.generators
                    ],
                    "energy": it.energy,
                    "term_count": it.term_count,
                    "gradients": list(it.gradients),
                }
                for it in self.iterations
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QccTrace":
        """Read a trace; a schema other than qcc-trace/1, or a reference or
        generator not n_qubits wide, is refused."""
        if data.get("schema") != "qcc-trace/1":
            raise ValueError(f"expected schema qcc-trace/1, got {data.get('schema')!r}")
        n_qubits = _json(int, data["n_qubits"])
        basis_index(data["reference"], n_qubits)
        iterations = tuple(
            IterationRecord(
                generators=_json_rotations(it["generators"], n_qubits),
                energy=_json(float, it["energy"]),
                term_count=_json(int, it["term_count"]),
                gradients=tuple(_json(float, g) for g in _json(list, it.get("gradients", []))),
            )
            for it in _json(list, data["iterations"])
        )
        return cls(
            n_qubits=n_qubits,
            reference=data["reference"],
            iterations=iterations,
            initial_energy=_json(float, data["initial_energy"]),
            final_energy=_json(float, data["final_energy"]),
            converged=_json(bool, data["converged"]),
            e_inactive=_json(float, data.get("e_inactive", 0.0)),
            e_nuclear=_json(float, data.get("e_nuclear", 0.0)),
        )


def qcc_run(
    h0: QubitHamiltonian,
    reference: str,
    cfg: QccConfig | None = None,
    e_inactive: float = 0.0,
    e_nuclear: float = 0.0,
) -> QccTrace:
    """Run the screen / optimize / dress loop from a basis-state label.

    Each iteration screens flip groups, optimizes amplitudes for the top
    generators, and folds the rotations into the Hamiltonian. An iteration
    whose optimized energy drop falls below the tolerance is discarded and
    the run reports converged, so recorded iterations all gained at least
    the tolerance. Exhausting the iteration budget or finding no flip group
    with a nonzero gradient also stops the loop. The recorded energy of
    each iteration is <b|H_dressed|b> for the reference's basis state |b>,
    the diagonal sum of H_dressed.
    """
    cfg = cfg or QccConfig()
    b = basis_index(reference, h0.n_qubits)
    h = h0
    initial_energy = e_prev = _circuit_energy(h, b, [])([])
    records: list[IterationRecord] = []
    converged = False
    for _ in range(cfg.max_iterations):
        ranked = screen_generators(h, reference)
        if not ranked:
            converged = True
            break
        top = ranked[: cfg.generators_per_iteration]
        generators = [flip_representative(x_mask, h.n_qubits) for x_mask, _ in top]
        e_opt, taus = optimize_amplitudes(h, reference, generators)
        if e_prev - e_opt < cfg.energy_tolerance:
            converged = True
            break
        pairs = tuple(zip(generators, taus))
        h = dress_sequence(h, pairs)
        energy = _circuit_energy(h, b, [])([])
        records.append(
            IterationRecord(
                generators=pairs,
                energy=energy,
                term_count=len(h),
                gradients=tuple(grad for _, grad in top),
            )
        )
        e_prev = energy
    return QccTrace(
        n_qubits=h0.n_qubits,
        reference=reference,
        iterations=tuple(records),
        initial_energy=initial_energy,
        final_energy=records[-1].energy if records else initial_energy,
        converged=converged,
        e_inactive=e_inactive,
        e_nuclear=e_nuclear,
    )


def total_energy(trace: QccTrace) -> float:
    """Active energy plus the inactive and nuclear offsets."""
    return trace.final_energy + trace.e_inactive + trace.e_nuclear


class ExtrapolationError(ValueError):
    """Raised when a trace cannot support the log-linear difference fit."""

    def __init__(self, message: str, violations: Sequence[int] = ()):
        self.violations = tuple(violations)
        if violations:
            message = f"{message} (iterations {list(violations)})"
        super().__init__(message)


class FitRequestError(ExtrapolationError):
    """Raised when discard, window or a threshold is out of range."""


@dataclass(frozen=True)
class ExtrapolationResult:
    """Log-linear fit of energy differences and the implied converged energy.

    The fitted line gives E^(i-1) - E^(i) = 10^(a*i + c) and the model
    E^(i) = E_0 + 10^(a*i + b); both methods raise OverflowError past float64.
    """

    a: float
    b: float
    c: float
    e0_estimate: float
    iter_at_threshold: dict[float, int]
    fit_window: tuple[int, int]
    residual: float

    def fitted_energy(self, i: int) -> float:
        return self.e0_estimate + 10.0 ** (self.a * i + self.b)

    def fitted_difference(self, i: int) -> float:
        return 10.0 ** (self.a * i + self.c)


def extrapolate(
    trace: QccTrace | Sequence[float],
    discard: int = 5,
    window: int = 35,
    thresholds: Sequence[float] = (1.6e-3, 1.6e-4),
) -> ExtrapolationResult:
    """Fit log10(E^(i-1) - E^(i)) = a*i + c over a window of iterations.

    The model E^(i) = E_0 + 10^(a*i + b) makes successive differences decay
    as 10^(a*i + c) with c = b + log10(10^(-a) - 1); fitting the straight
    line recovers a and c, the intercept relation recovers b, and E_0
    follows from the last windowed energy minus its fitted excess. The
    first `discard` differences are excluded from the fit. A decay ratio
    10^a outside (0, 1), or a b, E_0 or threshold crossing that float64
    cannot hold, raises ExtrapolationError.
    """
    energies = [float(e) for e in (trace.energies if isinstance(trace, QccTrace) else trace)]
    if window < 3:
        raise FitRequestError(f"window must cover at least 3 iterations, got {window}")
    if discard < 0:
        raise FitRequestError(f"discard must be non-negative, got {discard}")
    if not all(t > 0.0 and math.isfinite(t) for t in thresholds):
        raise FitRequestError(f"thresholds must be positive and finite: {thresholds}")
    needed = discard + window
    have = len(energies) - 1
    if have < needed:
        raise ExtrapolationError(
            f"trace has {have} iterations but discard={discard} window={window} "
            f"needs {needed}"
        )
    first = discard + 1
    last = discard + window
    iters = np.arange(first, last + 1, dtype=float)
    diffs = np.array([energies[i - 1] - energies[i] for i in range(first, last + 1)])
    bad = [int(i) for i, d in zip(iters, diffs) if not 0.0 < d < math.inf]  # NaN too
    if bad:
        raise ExtrapolationError(
            "energy differences must be strictly positive and finite in the fit window", bad
        )
    y = np.log10(diffs)
    a, c = (float(v) for v in np.polyfit(iters, y, 1))
    if not (a < 0.0 and 0.0 < 10.0 ** a < 1.0):
        raise ExtrapolationError(f"fitted slope {a:.3g} is not decaying by a float64 ratio < 1")
    residual = float(np.sqrt(np.mean((y - (a * iters + c)) ** 2)))
    try:  # 10^-a can overflow, or round to 1
        b = c - math.log10(10.0 ** (-a) - 1.0)
        e0 = energies[last] - 10.0 ** (a * last + b)
    except (OverflowError, ValueError):
        b = e0 = math.nan
    steps = [(math.log10(t) - c) / a for t in thresholds]
    if not all(map(math.isfinite, [b, e0, *steps])):
        raise ExtrapolationError(f"slope {a:.3g} gives no finite b, E_0 or crossing in float64")
    crossings = {float(t): math.ceil(step) for t, step in zip(thresholds, steps)}
    return ExtrapolationResult(a, b, c, e0, crossings, (discard, window), residual)


def optimize_uccsd(
    h: QubitHamiltonian,
    reference: str,
    generator_terms: Sequence[Sequence[tuple[PauliString, float]]],
) -> tuple[float, list[float]]:
    """Variationally optimize single-Trotter-step excitation amplitudes.

    Amplitude t_k multiplies every Pauli term of its generator: the circuit
    applies exp(-i theta P / 2) with theta = -2 * t_k * c for each (P, c),
    amplitudes in list order. A generator's terms commute and their sum G
    satisfies G^3 = G, so the energy along one amplitude is an exact
    two-harmonic curve; the amplitudes are swept coordinate by coordinate
    like optimize_amplitudes, five evaluations per exact update. The
    circuit starts from the reference label's basis state.
    """
    energy = _circuit_energy(h, basis_index(reference, h.n_qubits), generator_terms)
    return _coordinate_sweeps(len(generator_terms), energy, _two_harmonic_step)
