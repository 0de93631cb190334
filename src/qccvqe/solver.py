"""Iterative qubit-coupled-cluster solver with Hamiltonian dressing.

Each iteration screens candidate generators by the exact energy gradient at
zero amplitude (one representative per flip-index group), optimizes the
selected amplitudes over the circuit energy, then absorbs the rotations
into the Hamiltonian by conjugation so the next iteration restarts from the
fixed reference state. A log-linear fit of successive energy differences
extrapolates the converged energy from a finite trace.

The reference is a basis state, and k rotations reach at most 2^k basis
states from it, so every QCC energy is Pauli algebra on that support and no
2^n vector is built. The statevector simulator serves shot emulation,
`measure`, the UCCSD baseline and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import (
    DEFAULT_PRUNE,
    PauliString,
    QubitHamiltonian,
    dress_sequence,
)
from .simulator import (
    Statevector,
    _pauli_phase_vector,
    apply_rotation_sequence,
    bitstring_label,
    expectation,
)

__all__ = [
    "GRAD_EPS",
    "QccConfig",
    "CandidateGenerator",
    "IterationRecord",
    "QccTrace",
    "ExtrapolationResult",
    "ExtrapolationError",
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
    prune_threshold: float = DEFAULT_PRUNE
    seed: int = 7  # the default shot seed of a manifest

    def __post_init__(self) -> None:
        if self.generators_per_iteration < 1:
            raise ValueError("generators_per_iteration must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.energy_tolerance <= 0:
            raise ValueError("energy_tolerance must be positive")
        if self.prune_threshold < 0:
            raise ValueError("prune_threshold must be non-negative")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "QccConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; valid keys: {sorted(known)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class CandidateGenerator:
    """One flip-index group's representative, scored by |dE/dtau| at 0."""

    flip_set: frozenset[int]
    representative: PauliString
    gradient_magnitude: float


def flip_representative(flip_set: Iterable[int], n_qubits: int) -> PauliString:
    """Canonical odd-Y-count member of a flip group: Y at min, X elsewhere."""
    x_mask = sum(1 << q for q in set(flip_set))
    if not x_mask:
        raise ValueError("flip set must be non-empty")
    return PauliString(n_qubits, x_mask, x_mask & -x_mask)


def _basis_index_of(ref: Statevector, n_qubits: int) -> int:
    if n_qubits != ref.n_qubits:
        raise ValueError(f"qubit-count mismatch: {n_qubits} vs {ref.n_qubits}")
    index = ref.basis_state_index
    if index is None:
        raise ValueError("reference must be a computational-basis state")
    return index


def _term_arrays(h: QubitHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Term x-masks, z-masks (uint64) and coefficients, in h's term order."""
    x = np.fromiter((p.x_mask for p in h.terms), dtype=np.uint64, count=len(h))
    z = np.fromiter((p.z_mask for p in h.terms), dtype=np.uint64, count=len(h))
    return x, z, np.fromiter(h.terms.values(), dtype=np.float64, count=len(h))


def _support_energy(
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    b: int,
    rotations: Sequence[tuple[PauliString, float]],
) -> float:
    """<b|U^dag H U|b> for U = U_1 ... U_k on the <= 2^k states U|b> covers.

    The rotations act rightmost first, as in apply_rotation_sequence, on the
    sorted support indices and their amplitudes, from {b: 1}. A term
    (x, z, c) adds c conj(a[i ^ x]) phase(i) a[i] for each support index i
    whose partner i ^ x is in the support; with no rotations that leaves
    the diagonal sum of c (-1)^{|b & z|} over the terms with x = 0.
    """
    idx = np.array([b], dtype=np.uint64)
    amp = np.ones(1, dtype=np.complex128)
    for p, tau in reversed(rotations):
        phase = _pauli_phase_vector(p.x_mask, p.z_mask, idx)
        kicked = -1j * math.sin(0.5 * tau) * phase * amp
        merged = np.concatenate([math.cos(0.5 * tau) * amp, kicked])
        idx, where = np.unique(
            np.concatenate([idx, idx ^ np.uint64(p.x_mask)]), return_inverse=True
        )
        amp = np.bincount(where, merged.real) + 1j * np.bincount(where, merged.imag)
    x, z, coeff = (a[:, None] for a in terms)
    partner = idx ^ x
    slot = np.minimum(np.searchsorted(idx, partner), idx.size - 1)
    hit = idx[slot] == partner
    terms_at = coeff * np.conj(amp[slot]) * _pauli_phase_vector(x, z, idx) * amp
    return float(terms_at[hit].sum().real)


def screen_generators(
    h: QubitHamiltonian, ref: Statevector
) -> list[CandidateGenerator]:
    """Rank flip-index groups by exact zero-amplitude energy gradient.

    For a basis reference |b> and representative R of flip set F, only the
    Hamiltonian terms sharing F contribute to dE/dtau at tau = 0, which is
    Im<b|P R|b> for their sum P = sum_k c_k P_k. With P_k|b> = phi_k |b ^ x>
    and R|b> = phi_R |b ^ x>, that is Im(phi_R * conj(sum_k c_k phi_k)), so
    one phase per term and one sum per x-mask give every gradient. Groups
    with zero gradient are dropped; the rest are sorted by descending
    magnitude rounded to a multiple of GRAD_EPS, ties broken by canonical
    string order.
    """
    b = np.uint64(_basis_index_of(ref, h.n_qubits))
    x, z, coeff = _term_arrays(h)
    flips = x != 0
    column = coeff[flips] * _pauli_phase_vector(x[flips], z[flips], b)
    x_masks, group = np.unique(x[flips], return_inverse=True)
    sums = np.bincount(group, column.real) + 1j * np.bincount(group, column.imag)
    # flip_representative's z-mask: Y on the lowest flipped qubit only.
    rep_z = x_masks & (~x_masks + np.uint64(1))
    grads = np.imag(_pauli_phase_vector(x_masks, rep_z, b) * np.conj(sums))
    candidates: list[CandidateGenerator] = []
    for x_mask, grad in zip(x_masks.tolist(), grads.tolist()):
        if abs(grad) > GRAD_EPS:
            flip_set = frozenset(q for q in range(h.n_qubits) if (x_mask >> q) & 1)
            rep = flip_representative(flip_set, h.n_qubits)
            candidates.append(CandidateGenerator(flip_set, rep, abs(grad)))
    candidates.sort(
        key=lambda c: (-round(c.gradient_magnitude / GRAD_EPS), c.representative.key())
    )
    return candidates


def optimize_amplitudes(
    h: QubitHamiltonian,
    ref: Statevector,
    generators: Sequence[PauliString],
) -> tuple[float, list[float]]:
    """Minimize the circuit energy over the generator amplitudes.

    Every generator P squares to the identity, so with the other amplitudes
    fixed the energy is exactly E(tau_j + d) = a + b cos d + c sin d. Two
    evaluations at d = +-pi/2 fix a and c, the current energy fixes b, and
    the minimum a - hypot(b, c) sits at d = atan2(-c, -b) (Rotosolve). One
    generator needs a single exact update; several are swept coordinate by
    coordinate from zero until a sweep stops lowering the energy. The zero
    point wins if nothing lower is found, so the result never exceeds the
    input energy. Amplitudes are returned in [-pi, pi]. The reference must
    be a basis state: energies come from the <= 2^k states the circuit reaches.
    """
    if not generators:
        raise ValueError("no generators to optimize")
    index = _basis_index_of(ref, h.n_qubits)
    terms = _term_arrays(h)
    n = len(generators)
    taus = [0.0] * n

    def shifted_energy(j: int, shift: float) -> float:
        shifted = list(taus)
        shifted[j] += shift
        return _support_energy(terms, index, list(zip(generators, shifted)))

    e_zero = e_cur = shifted_energy(0, 0.0)
    for _ in range(_MAX_SWEEPS):
        e_start = e_cur
        for j in range(n):
            e_plus = shifted_energy(j, 0.5 * math.pi)
            e_minus = shifted_energy(j, -0.5 * math.pi)
            a = 0.5 * (e_plus + e_minus)
            b = e_cur - a
            c = 0.5 * (e_plus - e_minus)
            swing = math.hypot(b, c)
            # A flat curve keeps its tau: atan2 of rounding noise would move
            # it at random and unsettle the other coordinates.
            if swing > GRAD_EPS:
                taus[j] = math.remainder(taus[j] + math.atan2(-c, -b), 2.0 * math.pi)
                e_cur = a - swing
        if n == 1 or e_start - e_cur <= _SWEEP_TOLERANCE:
            break
    if e_cur < e_zero:
        return e_cur, taus
    return e_zero, [0.0] * n


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
        iterations = tuple(
            IterationRecord(
                generators=tuple(
                    (PauliString.from_label(g["pauli"]), float(g["tau"]))
                    for g in it["generators"]
                ),
                energy=float(it["energy"]),
                term_count=int(it["term_count"]),
                gradients=tuple(float(g) for g in it.get("gradients", ())),
            )
            for it in data["iterations"]
        )
        return cls(
            n_qubits=int(data["n_qubits"]),
            reference=str(data["reference"]),
            iterations=iterations,
            initial_energy=float(data["initial_energy"]),
            final_energy=float(data["final_energy"]),
            converged=bool(data["converged"]),
            e_inactive=float(data.get("e_inactive", 0.0)),
            e_nuclear=float(data.get("e_nuclear", 0.0)),
        )


def qcc_run(
    h0: QubitHamiltonian,
    ref: Statevector,
    cfg: QccConfig | None = None,
    e_inactive: float = 0.0,
    e_nuclear: float = 0.0,
) -> QccTrace:
    """Run the screen / optimize / dress loop from a basis-state reference.

    Each iteration screens flip groups, optimizes amplitudes for the top
    generators, and folds the rotations into the Hamiltonian. An iteration
    whose optimized energy drop falls below the tolerance is discarded and
    the run reports converged, so recorded iterations all gained at least
    the tolerance. Exhausting the iteration budget or finding no flip group
    with a nonzero gradient also stops the loop. The recorded energy of
    each iteration is <ref|H_dressed|ref>, the diagonal sum of H_dressed.
    """
    cfg = cfg or QccConfig()
    b = _basis_index_of(ref, h0.n_qubits)
    h = h0
    initial_energy = e_prev = _support_energy(_term_arrays(h), b, ())
    records: list[IterationRecord] = []
    converged = False
    for _ in range(cfg.max_iterations):
        candidates = screen_generators(h, ref)
        if not candidates:
            converged = True
            break
        top = candidates[: cfg.generators_per_iteration]
        generators = [c.representative for c in top]
        e_opt, taus = optimize_amplitudes(h, ref, generators)
        if e_prev - e_opt < cfg.energy_tolerance:
            converged = True
            break
        pairs = tuple(zip(generators, taus))
        h = dress_sequence(h, pairs, prune=cfg.prune_threshold)
        energy = _support_energy(_term_arrays(h), b, ())
        records.append(
            IterationRecord(
                generators=pairs,
                energy=energy,
                term_count=len(h),
                gradients=tuple(c.gradient_magnitude for c in top),
            )
        )
        e_prev = energy
    return QccTrace(
        n_qubits=h0.n_qubits,
        reference=bitstring_label(b, h0.n_qubits),
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


@dataclass(frozen=True)
class ExtrapolationResult:
    """Log-linear fit of energy differences and the implied converged energy."""

    a: float
    b: float
    e0_estimate: float
    iter_at_threshold: dict[float, int]
    fit_window: tuple[int, int]
    residual: float


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
    first `discard` differences are excluded from the fit.
    """
    energies = trace.energies if isinstance(trace, QccTrace) else list(trace)
    if window < 3:
        raise ExtrapolationError(f"window must cover at least 3 iterations, got {window}")
    if discard < 0:
        raise ExtrapolationError(f"discard must be non-negative, got {discard}")
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
    diffs = np.array(
        [energies[i - 1] - energies[i] for i in range(first, last + 1)]
    )
    bad = [int(i) for i, d in zip(iters, diffs) if d <= 0.0]
    if bad:
        raise ExtrapolationError(
            "energy differences must be strictly positive in the fit window", bad
        )
    y = np.log10(diffs)
    a, c = np.polyfit(iters, y, 1)
    if a >= 0.0:
        raise ExtrapolationError(f"fitted slope {a:.3g} is not decaying")
    residual = float(np.sqrt(np.mean((y - (a * iters + c)) ** 2)))
    b = c - math.log10(10.0 ** (-a) - 1.0)
    e0 = energies[last] - 10.0 ** (a * last + b)
    crossings = {
        float(t): int(math.ceil((math.log10(t) - c) / a)) for t in thresholds
    }
    return ExtrapolationResult(
        a=float(a),
        b=float(b),
        e0_estimate=float(e0),
        iter_at_threshold=crossings,
        fit_window=(discard, window),
        residual=residual,
    )


def optimize_uccsd(
    h: QubitHamiltonian,
    ref: Statevector,
    generator_terms: Sequence[Sequence[tuple[PauliString, float]]],
    seed: int = 7,
) -> tuple[float, list[float]]:
    """Variationally optimize single-Trotter-step excitation amplitudes.

    Amplitude t_k multiplies every Pauli term of its generator: the circuit
    applies exp(-i theta P / 2) with theta = -2 * t_k * c for each (P, c),
    amplitudes in list order. Minimized with bounded Nelder-Mead from zero
    plus one restart drawn from `seed`; the zero point is always evaluated.
    """
    import scipy.optimize  # imported here: ~150 ms that qcc and pes never use

    if not generator_terms:
        raise ValueError("no generators to optimize")

    def fun(taus: np.ndarray) -> float:
        pairs = [(p, -2.0 * t * c) for t, ts in zip(taus, generator_terms) for p, c in ts]
        # apply_rotation_sequence applies the last pair first
        return expectation(apply_rotation_sequence(ref, pairs[::-1]), h)

    n = len(generator_terms)
    e_zero = fun(np.zeros(n))
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n), rng.uniform(-0.1, 0.1, size=n)]
    best_e, best_taus = e_zero, [0.0] * n
    for x0 in starts:
        result = scipy.optimize.minimize(
            fun,
            x0,
            method="Nelder-Mead",
            bounds=[(-math.pi, math.pi)] * n,
            options={"maxiter": 2000 * n, "xatol": 1e-8, "fatol": 1e-12},
        )
        if result.fun < best_e:
            best_e = float(result.fun)
            best_taus = [float(t) for t in result.x]
    return best_e, best_taus
