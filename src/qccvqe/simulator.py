"""Dense statevector emulation, qubit-wise-commuting grouping, shot sampling.

Basis-index convention: qubit i is bit i of the computational-basis index,
so qubit 0 is the least significant bit. Bitstring labels follow the Pauli
label convention with qubit 0 leftmost. States live in C^(2^n) as complex
numpy arrays normalized to unit 2-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliString, QubitHamiltonian

__all__ = [
    "MAX_QUBITS",
    "Statevector",
    "basis_index",
    "bitstring_label",
    "prepare_basis_state",
    "apply_pauli",
    "apply_pauli_rotation",
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


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def basis_index(bits: str) -> int:
    """Index of the basis state labeled by a 0/1 string, qubit 0 leftmost."""
    index = 0
    for i, ch in enumerate(bits):
        if ch not in "01":
            raise ValueError(f"invalid bit {ch!r} in bitstring {bits!r}")
        index |= int(ch) << i
    return index


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
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def basis_state_index(self) -> int | None:
        """Basis index if the state is a computational-basis state, else None."""
        hits = np.flatnonzero(np.abs(self.amplitudes) > 1e-12)
        if hits.size == 1 and abs(abs(self.amplitudes[hits[0]]) - 1.0) < 1e-12:
            return int(hits[0])
        return None


def prepare_basis_state(n_qubits: int, bits: str | int) -> Statevector:
    """Computational-basis state |bits>; accepts a label string or index."""
    _check_width(n_qubits)
    if isinstance(bits, str):
        if len(bits) != n_qubits:
            raise ValueError(
                f"bitstring length {len(bits)} does not match {n_qubits} qubits"
            )
        index = basis_index(bits)
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
    broadcast: one string over many indices, as in the simulator and the
    oracle's matrix builder, or many strings over one index, as in screening.
    """
    k = np.bitwise_count(np.bitwise_and(x_mask, z_mask)) + 2 * np.bitwise_count(
        idx & z_mask
    )
    return _PHASES[k & 3]


def apply_pauli(state: Statevector, p: PauliString) -> Statevector:
    """Return P|psi> without building a matrix."""
    if p.n_qubits != state.n_qubits:
        raise ValueError(f"qubit-count mismatch: {p.n_qubits} vs {state.n_qubits}")
    idx = np.arange(state.amplitudes.size, dtype=np.uint64)
    amp = _pauli_phase_vector(p.x_mask, p.z_mask, idx) * state.amplitudes
    if p.x_mask:
        out = np.empty_like(amp)
        out[idx ^ np.uint64(p.x_mask)] = amp
        amp = out
    return Statevector(state.n_qubits, amp)


def apply_pauli_rotation(state: Statevector, p: PauliString, tau: float) -> Statevector:
    """Return exp(-i tau P / 2)|psi> = cos(tau/2)|psi> - i sin(tau/2) P|psi>."""
    if not math.isfinite(tau):
        raise ValueError(f"non-finite rotation angle {tau!r}")
    rotated = apply_pauli(state, p)
    amp = (
        math.cos(tau / 2.0) * state.amplitudes
        - 1j * math.sin(tau / 2.0) * rotated.amplitudes
    )
    return Statevector(state.n_qubits, amp)


def apply_rotation_sequence(
    state: Statevector, generators: Iterable[tuple[PauliString, float]]
) -> Statevector:
    """Prepare (U_1 U_2 ... U_n)|psi> for a generator list [g_1, ..., g_n].

    The rightmost factor acts first, so the list is traversed in reverse.
    This is the circuit-side counterpart of pauli.dress_sequence: conjugating
    the Hamiltonian by the listed generators equals preparing this state.
    """
    for p, tau in reversed(list(generators)):
        state = apply_pauli_rotation(state, p, tau)
    return state


def expectation(state: Statevector, h: QubitHamiltonian) -> float:
    """Exact <psi|H|psi>; raises if an imaginary residue above 1e-8 appears."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(f"qubit-count mismatch: {h.n_qubits} vs {state.n_qubits}")
    amp = state.amplitudes
    conj = amp.conj()
    idx = np.arange(amp.size, dtype=np.uint64)
    total = 0.0 + 0.0j
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        vec = _pauli_phase_vector(x, z, idx) * amp
        total += c * np.dot(conj[idx ^ np.uint64(x)], vec)
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


def _qwc_conflict(tx: int, tz: int, gx: int, gz: int) -> bool:
    """True iff (tx, tz) disagrees with the group basis on a shared qubit."""
    return bool(((tx ^ gx) | (tz ^ gz)) & (tx | tz) & (gx | gz))


def group_qwc(h: QubitHamiltonian) -> QwcGrouping:
    """Greedy first-fit partition into qubit-wise commuting groups.

    Terms are scanned in canonical order and placed in the first group whose
    accumulated basis agrees with the term on every shared qubit. The scan
    order makes the partition deterministic.
    """
    constant = 0.0
    open_groups: list[tuple[int, int, list[tuple[PauliString, float]]]] = []
    for p, c in h.items():
        if p.is_identity:
            constant += c
            continue
        for i, (gx, gz, members) in enumerate(open_groups):
            if not _qwc_conflict(p.x_mask, p.z_mask, gx, gz):
                members.append((p, c))
                open_groups[i] = (gx | p.x_mask, gz | p.z_mask, members)
                break
        else:
            open_groups.append((p.x_mask, p.z_mask, [(p, c)]))
    groups = tuple(
        MeasurementGroup(gx, gz, tuple(members)) for gx, gz, members in open_groups
    )
    return QwcGrouping(h.n_qubits, constant, groups)


@dataclass(frozen=True, slots=True)
class ShotEstimate:
    """Monte-Carlo energy estimate from finite measurement shots.

    per_group holds (group index, estimate, shots); energy is the sum of
    the per-group estimates plus the identity-term constant.
    """

    energy: float
    per_group: tuple[tuple[int, float, int], ...]
    seed: int
    shots: int
    constant: float
    std_error: float
    rng: str = "numpy-pcg64-multinomial"


# Single-qubit basis changes: H maps X -> Z; H.Sdg maps Y -> Z.
_H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_HSDG_GATE = np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / math.sqrt(2.0)


def _apply_single_qubit(state: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a dense vector."""
    n = state.size
    reshaped = state.reshape(n >> (qubit + 1), 2, 1 << qubit)
    out = np.einsum("ab,ibj->iaj", gate, reshaped)
    return np.ascontiguousarray(out).reshape(n)


def _rotate_to_group_basis(state: Statevector, group: MeasurementGroup) -> np.ndarray:
    """Rotate so every member becomes diagonal (Z/I only) in the new frame."""
    amp = state.amplitudes.copy()
    for qubit in range(state.n_qubits):
        xb = (group.basis_x >> qubit) & 1
        zb = (group.basis_z >> qubit) & 1
        if xb and zb:
            amp = _apply_single_qubit(amp, _HSDG_GATE, qubit)
        elif xb:
            amp = _apply_single_qubit(amp, _H_GATE, qubit)
    return amp


def _group_values(group: MeasurementGroup, n_qubits: int) -> np.ndarray:
    """Energy contribution of each measured bitstring in the rotated frame.

    After the basis change every member is diagonal with eigenvalue
    (-1)^{|bits & support|} on outcome `bits`.
    """
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
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
    """
    if grouping.n_qubits != state.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {grouping.n_qubits} vs {state.n_qubits}"
        )
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    energy = grouping.constant
    variance_of_mean = 0.0
    per_group: list[tuple[int, float, int]] = []
    for gid, group in enumerate(grouping.groups):
        amp = _rotate_to_group_basis(state, group)
        probs = np.abs(amp) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        values = _group_values(group, state.n_qubits)
        mean = float(np.dot(counts, values)) / shots
        second = float(np.dot(counts, values**2)) / shots
        variance_of_mean += max(second - mean * mean, 0.0) / shots
        energy += mean
        per_group.append((gid, mean, shots))
    return ShotEstimate(
        energy=energy,
        per_group=tuple(per_group),
        seed=seed,
        shots=shots,
        constant=grouping.constant,
        std_error=math.sqrt(variance_of_mean),
    )


def per_group_error(
    estimate: ShotEstimate,
    state: Statevector,
    grouping: QwcGrouping,
) -> list[tuple[int, float]]:
    """Exact group expectation minus sampled estimate, one entry per group."""
    if len(estimate.per_group) != len(grouping.groups):
        raise ValueError(
            f"grouping mismatch: estimate has {len(estimate.per_group)} groups, "
            f"grouping has {len(grouping.groups)}"
        )
    errors: list[tuple[int, float]] = []
    for (gid, sampled, _), group in zip(estimate.per_group, grouping.groups):
        members = QubitHamiltonian(state.n_qubits, group.members, prune=0.0)
        exact = expectation(state, members)
        errors.append((gid, exact - sampled))
    return errors
