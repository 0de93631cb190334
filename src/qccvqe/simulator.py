"""Dense statevector emulation, qubit-wise-commuting grouping, shot sampling.

Basis-index convention: qubit i is bit i of the computational-basis index,
so qubit 0 is the least significant bit. Bitstring labels follow the Pauli
label convention with qubit 0 leftmost. States live in C^(2^n) as complex
numpy arrays normalized to unit 2-norm.

Every sum that reaches an energy, an estimate or a norm, here and in the
oracle, is `_sum`, numpy's `add.reduce`: a ufunc reduction (pairwise along a
contiguous axis) that calls no BLAS, so no thread count moves a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliString, QubitHamiltonian

__all__ = [
    "MAX_QUBITS",
    "Statevector",
    "basis_index",
    "bitstring_label",
    "prepare_basis_state",
    "apply_rotation_sequence",
    "expectation",
    "MeasurementGroup",
    "QwcGrouping",
    "group_qwc",
    "ShotEstimate",
    "sample_energy",
    "per_group_error",
]

# Dense vectors above this size (256 MiB of complex128 at 24 qubits) are
# refused up front instead of letting numpy fail on allocation.
MAX_QUBITS = 24

_PHASES = np.array([1, 1j, -1, -1j], dtype=np.complex128)

_sum = np.add.reduce


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(_sum((v.conj() * v).real)))


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _check_sampling(shots: int | None, *seeds: int | None) -> None:
    """The one check of the sampling settings; a None is not checked."""
    # rng.multinomial takes the count as a C long
    if shots is not None and not 1 <= shots < 2**63:
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    for seed in seeds:
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")


def basis_index(bits: str, n_qubits: int | None = None) -> int:
    """Index of the basis state labeled by a 0/1 string, qubit 0 leftmost, that
    is n_qubits long if given; any other label raises ValueError."""
    if not isinstance(bits, str) or not set(bits) <= {"0", "1"}:
        raise ValueError(f"basis-state label must be a string of 0/1 bits, got {bits!r}")
    if n_qubits is not None and len(bits) != n_qubits:
        raise ValueError(f"basis-state label {bits!r} does not have {n_qubits} bits")
    return int(bits[::-1] or "0", 2)


def bitstring_label(index: int, n_qubits: int) -> str:
    """Inverse of basis_index."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(n_qubits))


@dataclass(frozen=True, slots=True)
class Statevector:
    """Immutable wrapper around a normalized dense amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_width(self.n_qubits)
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match {self.n_qubits} qubits"
            )
        norm = _norm(amp)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


def prepare_basis_state(n_qubits: int, bits: str | int) -> Statevector:
    """Computational-basis state |bits>; accepts a label string or index."""
    _check_width(n_qubits)
    if isinstance(bits, str):
        index = basis_index(bits, n_qubits)
    else:
        index = int(bits)
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amp = np.zeros(1 << n_qubits, dtype=np.complex128)
    amp[index] = 1.0
    return Statevector(n_qubits, amp)


def _pauli_phase_vector(x_mask, z_mask, idx) -> np.ndarray:
    """Scalar that the string P(x, z) attaches to each basis index, besides the flip.

    P|b> = i^{|x&z|} (-1)^{|b&z|} |b ^ x>, so the entry for b is the scalar
    that takes |b> to |b ^ x>. Masks and indices (uint64, or Python ints)
    broadcast: one string over many indices, as in the rotations and the
    entries kernel, or many strings over one index, as in screening.
    """
    k = np.bitwise_count(np.bitwise_and(x_mask, z_mask)) + 2 * np.bitwise_count(
        idx & z_mask
    )
    return _PHASES[k & 3]


def _entries(
    h: QubitHamiltonian,
    basis: np.ndarray,
    flips: np.ndarray | None = None,
    *,
    exponent: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the Pauli sum on the sorted basis indices `basis`.

    Entry (r, c) is <basis[r]|H|basis[c]>, from the action
    P|b> = i^{|x&z|} (-1)^{|b&z|} |b ^ x>. Terms sharing an x-mask are one
    slice of canonical order and send every column to the same row, so
    their phases are summed and placed once per mask; no (row, col) pair
    repeats. Rows that leave the basis are dropped, leaving the block of the
    full matrix on `basis`. Given sorted unique `flips`, only those masks'
    slices are read. With an even Y count in every term read, each phase is
    +/-1, so the values are returned real. A nonzero `exponent` gives the
    entries of 2**-exponent H, scaling the coefficients before they are summed.
    """
    coeff = np.ldexp(h.coeff, -exponent) if exponent else h.coeff
    idx = basis.astype(np.uint64)
    cols = np.arange(idx.size)
    if flips is None:
        flips = np.unique(h.x, return_index=True)[0]
    lo, hi = (np.searchsorted(h.x, flips, side).tolist() for side in ("left", "right"))
    rows_all, cols_all, vals_all = [cols[:0]], [cols[:0]], [np.zeros(0, np.complex128)]
    real = True
    for x_mask, a, b in zip(flips.tolist(), lo, hi):
        if a == b:
            continue
        x, z = h.x[a:b, None], h.z[a:b, None]
        real = real and not (np.bitwise_count(x & z) & 1).any()
        flipped = idx ^ np.uint64(x_mask)
        rows = np.minimum(np.searchsorted(idx, flipped), idx.size - 1)
        inside = idx[rows] == flipped
        rows_all.append(rows[inside])
        cols_all.append(cols[inside])
        phases = _pauli_phase_vector(x, z, idx)
        phases *= coeff[a:b, None]
        vals = _sum(phases, axis=0)
        vals_all.append(vals[inside])
    vals = np.concatenate(vals_all)
    return np.concatenate(rows_all), np.concatenate(cols_all), vals.real if real else vals


@cache
def _indices(n_qubits: int) -> np.ndarray:
    """Read-only uint64 basis indices 0 .. 2^n - 1, built once per width."""
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    idx.flags.writeable = False
    return idx


def _pair_step(generator: Sequence[tuple[PauliString, float]], basis: np.ndarray):
    """exp(i t G) for G = sum c P on the sorted uint64 `basis`. The terms share one flip
    mask x, so G|s> = g(s)|s ^ x> with |g(s)| in {0, 1}, and exp(i t G) rotates each coupled
    pair {s, s ^ x} by t. Returns the partners s ^ x of the coupled states and rotate(amp, t),
    which applies exp(i t G) in place to amplitudes ordered like `basis`."""
    masks = {p.x_mask for p, _ in generator}
    if len(masks) != 1:
        raise ValueError(f"generator terms flip different masks {sorted(masks)}")
    x = np.uint64(masks.pop())
    z = np.array([p.z_mask for p, _ in generator], dtype=np.uint64)[:, None]
    phases = _pauli_phase_vector(x, z, basis)
    phases *= np.array([c for _, c in generator])[:, None]
    g = _sum(phases, axis=0)
    modulus = np.abs(g)
    if (np.minimum(modulus, abs(modulus - 1.0)) > 1e-9).any():
        raise ValueError("generator couplings must have modulus 0 or 1")
    src = np.minimum(np.searchsorted(basis, basis ^ x), basis.size - 1)
    pos = np.flatnonzero((basis[src] == basis ^ x) & (modulus[src] > 0.5))
    src, g = src[pos], g[src[pos]]  # each coupled position takes its partner's coupling

    def rotate(amp: np.ndarray, t: float) -> None:
        amp[pos] = math.cos(t) * amp[pos] + 1j * math.sin(t) * g * amp[src]

    return basis[modulus > 0.5] ^ x, rotate


def _quadratic_form(amp: np.ndarray, rows, cols, vals) -> complex:
    """sum conj(amp[rows]) * vals * amp[cols]."""
    return _sum(amp.conj()[rows] * vals * amp[cols])


def apply_rotation_sequence(
    state: Statevector, generators: Iterable[tuple[PauliString, float]]
) -> Statevector:
    """Prepare (U_1 U_2 ... U_n)|psi> for a generator list [g_1, ..., g_n].

    The rightmost factor acts first, so the list is traversed in reverse.
    This is the circuit-side counterpart of pauli.dress_sequence: conjugating
    the Hamiltonian by the listed generators equals preparing this state.
    Each exp(-i tau P / 2) is the pair step of [(P, 1)] at t = -tau / 2 on
    the raw amplitudes; only the result is validated as a Statevector.
    """
    amp = state.amplitudes.copy()
    for p, tau in reversed(list(generators)):
        if not math.isfinite(tau):
            raise ValueError(f"non-finite rotation angle {tau!r}")
        if p.n_qubits != state.n_qubits:
            raise ValueError(f"qubit-count mismatch: {p.n_qubits} vs {state.n_qubits}")
        _pair_step([(p, 1.0)], _indices(state.n_qubits))[1](amp, -0.5 * tau)
    return Statevector(state.n_qubits, amp)


def expectation(state: Statevector, h: QubitHamiltonian) -> float:
    """Exact <psi|H|psi>; raises if an imaginary residue above 1e-8 appears."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(f"qubit-count mismatch: {h.n_qubits} vs {state.n_qubits}")
    support = np.flatnonzero(state.amplitudes)  # zero amplitudes add nothing
    total = _quadratic_form(state.amplitudes[support], *_entries(h, support))
    if abs(total.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary part {total.imag!r}")
    return float(total.real)


@dataclass(frozen=True, slots=True)
class MeasurementGroup:
    """Qubit-wise commuting terms measurable in one shared single-qubit basis.

    basis_x / basis_z are the union masks of the member strings; per qubit
    they read off the one non-identity letter the members agree on.
    """

    basis_x: int
    basis_z: int
    members: tuple[tuple[PauliString, float], ...]

    @property
    def shared_basis(self) -> str:
        n = self.members[0][0].n_qubits
        return PauliString(n, self.basis_x, self.basis_z).to_label()


@dataclass(frozen=True, slots=True)
class QwcGrouping:
    """QWC partition of a Hamiltonian; the identity term is kept aside."""

    n_qubits: int
    constant: float
    groups: tuple[MeasurementGroup, ...]


def group_qwc(h: QubitHamiltonian) -> QwcGrouping:
    """Greedy first-fit partition into qubit-wise commuting groups.

    Terms are scanned in canonical order and placed in the first group whose
    accumulated basis agrees with the term on every shared qubit. The scan
    order makes the partition deterministic.
    """
    constant = 0.0
    open_groups: list[tuple[int, int, int, list[tuple[PauliString, float]]]] = []
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        support = x | z
        if not support:
            constant += c
            continue
        for i, (gx, gz, gs, members) in enumerate(open_groups):
            if not ((x ^ gx) | (z ^ gz)) & support & gs:
                members.append((PauliString(h.n_qubits, x, z), c))
                open_groups[i] = (gx | x, gz | z, gs | support, members)
                break
        else:
            open_groups.append((x, z, support, [(PauliString(h.n_qubits, x, z), c)]))
    groups = tuple(
        MeasurementGroup(gx, gz, tuple(members)) for gx, gz, _, members in open_groups
    )
    return QwcGrouping(h.n_qubits, constant, groups)


@dataclass(frozen=True, slots=True)
class ShotEstimate:
    """Monte-Carlo energy estimate from finite measurement shots.

    per_group holds one (estimate, exact) pair per group, in grouping order,
    each from `shots` draws; the exact value is read off the outcome
    distribution they were drawn from. energy is the sum of the estimates
    plus the identity-term constant.
    """

    energy: float
    per_group: tuple[tuple[float, float], ...]
    seed: int
    shots: int
    constant: float
    std_error: float
    rng: str = "numpy-pcg64-multinomial"


# Basis changes H (X -> Z) and H.Sdg (Y -> Z): [[1, c], [1, -c]] / sqrt(2), c = 1, -i.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _basis_change(amp: np.ndarray, qubit: int, y_letter: bool) -> None:
    """H, or H.Sdg for a Y letter, on one qubit, in place: with t = amp / sqrt(2),
    each pair becomes (t0 + c t1, t0 - c t1). These are the real products and
    sums of the complex 2x2 matrix product, so the amplitudes equal its own (up
    to the sign of an exact zero) and every outcome probability keeps its bits."""
    parts = amp.view(np.float64)  # real and imaginary parts, interleaved
    parts *= _INV_SQRT2
    pairs = amp.reshape(-1, 2, 1 << qubit)
    low, high = pairs[:, 0], pairs[:, 1]
    if y_letter:
        high *= -1j
    diff = low - high
    low += high
    high[...] = diff


def _rotate_to_group_basis(state: Statevector, group: MeasurementGroup) -> np.ndarray:
    """Rotate so every member becomes diagonal (Z/I only) in the new frame."""
    amp = state.amplitudes.copy()
    for qubit in range(state.n_qubits):
        if (group.basis_x >> qubit) & 1:
            _basis_change(amp, qubit, bool((group.basis_z >> qubit) & 1))
    return amp


def _group_values(group: MeasurementGroup, n_qubits: int) -> np.ndarray:
    """Energy contribution of each measured bitstring in the rotated frame.

    After the basis change every member is diagonal with eigenvalue
    (-1)^{|bits & support|} on outcome `bits`.
    """
    idx = _indices(n_qubits)
    values = np.zeros(idx.size, dtype=np.float64)
    for p, c in group.members:
        parity = np.bitwise_count(idx & np.uint64(p.support)).astype(np.int64) & 1
        values += c * (1.0 - 2.0 * parity)
    return values


def sample_energy(
    state: Statevector,
    grouping: QwcGrouping,
    shots: int,
    seed: int,
) -> ShotEstimate:
    """Estimate <psi|H|psi> from simulated projective measurements.

    Each group receives its own batch of `shots` samples, drawn from the
    exact outcome distribution in the group's shared measurement basis via
    one multinomial draw (outcome-count equivalent of shot-by-shot
    sampling). Deterministic for a fixed seed. The quoted std_error
    combines the per-group sample variances of the mean as independent.
    Each group's exact value is that distribution's mean outcome value.
    """
    if grouping.n_qubits != state.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {grouping.n_qubits} vs {state.n_qubits}"
        )
    _check_sampling(shots, seed)
    rng = np.random.default_rng(seed)
    energy = grouping.constant
    variance_of_mean = 0.0
    per_group: list[tuple[float, float]] = []
    for group in grouping.groups:
        amp = _rotate_to_group_basis(state, group)
        probs = np.abs(amp) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        values = _group_values(group, state.n_qubits)
        mean = float(_sum(counts * values)) / shots
        second = float(_sum(counts * values**2)) / shots
        variance_of_mean += max(second - mean * mean, 0.0) / shots
        energy += mean
        per_group.append((mean, float(_sum(probs * values))))
    return ShotEstimate(
        energy=energy,
        per_group=tuple(per_group),
        seed=seed,
        shots=shots,
        constant=grouping.constant,
        std_error=math.sqrt(variance_of_mean),
    )


def per_group_error(estimate: ShotEstimate) -> list[tuple[int, float]]:
    """(group index, exact value minus sampled estimate), one entry per group."""
    return [(gid, exact - sampled) for gid, (sampled, exact) in enumerate(estimate.per_group)]
