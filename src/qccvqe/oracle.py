"""Exact ground-state reference via blockwise dense diagonalization.

Provides the dense-matrix rendering of Pauli-sum Hamiltonians and the exact
lowest eigenvalue, optionally restricted to a fixed-electron-number sector.
Every numerical claim elsewhere in the package is checked against this
module, so it stays deliberately simple: the simulator's entries kernel,
which also gives every solver and statevector energy, lists the matrix
entries of the Pauli sum on a set of basis states (the C(n, N_e) states of
the sector, or all 2^n), the basis is split into the connected components
of those entries, and each block goes to numpy's `eigh`. The chain6 sector
has 924 states in blocks of 236, 236, 236 and 216; its full 4096-state
space splits into 8 blocks of 512. Entries are real when every term has an
even Y count, as in every mapped FCIDUMP. A block above 4096 states (the
whole 12-qubit space) is refused rather than allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliString, QubitHamiltonian
from .simulator import _entries, _indices

__all__ = [
    "ORACLE_MAX_QUBITS",
    "GroundState",
    "to_dense",
    "exact_ground",
]

# Inputs above 14 qubits are refused, and so is any block of more than 4096
# states, whose dense matrix alone takes 128 MiB real or 256 MiB complex.
ORACLE_MAX_QUBITS = 14
_MAX_BLOCK_STATES = 1 << 12

_DEGENERACY_GAP = 1e-9


def _check_size(n_qubits: int) -> None:
    if n_qubits > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle ceiling is {ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )


@dataclass(frozen=True, slots=True)
class GroundState:
    """Lowest eigenvalue with one representative eigenvector."""

    energy: float
    vector: np.ndarray
    degenerate: bool


def to_dense(h: QubitHamiltonian | PauliString) -> np.ndarray:
    """Dense complex128 matrix of a Pauli sum (or a single string).

    Row/column index b has qubit i at bit i. Built from the simulator's
    entries kernel rather than Kronecker products, so the bit convention
    cannot drift between the two.
    """
    if isinstance(h, PauliString):
        h = QubitHamiltonian(h.n_qubits, {h: 1.0})
    _check_size(h.n_qubits)
    dim = 1 << h.n_qubits
    rows, cols, vals = _entries(h, np.arange(dim))
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, cols] = vals
    return mat


def _sector_indices(
    n_qubits: int, n_electrons: int, occupation_of: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Basis indices whose decoded occupation has the requested electron count."""
    occ = occupation_of(_indices(n_qubits))
    counts = np.bitwise_count(occ).astype(np.int64)
    return np.flatnonzero(counts == n_electrons)


def _blocks(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Block index of each basis position, blocks numbered by smallest member.

    Blocks are the connected components of the listed (row, col) pairs,
    whatever their values. Each pass lowers every row's label to its
    columns' labels, then jumps each label to its label's label; a label
    never leaves its block and never rises. The pairs are symmetric (a flip
    mask maps the row back to the column), so the fixed point is constant
    on each block and equal to its smallest member.
    """
    label = np.arange(size)
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, rows, label[cols])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return np.searchsorted(np.flatnonzero(label == np.arange(size)), label)
        label = lowered


def _dense_ground(
    rows: np.ndarray, cols: np.ndarray, entries: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest two eigenvalues, and the ground block's positions and eigenvector.

    No entry connects two blocks, so the spectrum is the union of the
    blocks' spectra, and a dense `eigh` per block replaces one on the whole
    basis. Each block's matrix is filled from its own entries. The earliest
    block with the lowest eigenvalue supplies the vector, so reruns are
    identical, and the two lowest values are taken across blocks, so a
    degeneracy split over two blocks is still flagged.
    """
    block = _blocks(rows, cols, size)
    sizes = np.bincount(block)
    if sizes.max() > _MAX_BLOCK_STATES:
        raise ValueError(
            f"dense block of {sizes.max()} states is above the "
            f"{_MAX_BLOCK_STATES}-state ceiling"
        )
    counts = np.bincount(block[rows], minlength=sizes.size)
    members = np.split(np.argsort(block, kind="stable"), np.cumsum(sizes)[:-1])
    by_block = np.split(np.argsort(block[rows], kind="stable"), np.cumsum(counts)[:-1])
    local = np.empty(size, dtype=np.intp)
    lowest, best = [], None
    for positions, chosen in zip(members, by_block):
        local[positions] = np.arange(positions.size)
        mat = np.zeros((positions.size,) * 2, dtype=entries.dtype)
        mat[local[rows[chosen]], local[cols[chosen]]] = entries[chosen]
        vals, vecs = np.linalg.eigh(mat)
        lowest.append(vals[:2])
        if best is None or vals[0] < best[0]:
            best = (vals[0], positions, vecs[:, 0])
    return np.sort(np.concatenate(lowest))[:2], best[1], best[2]


def exact_ground(
    h: QubitHamiltonian,
    n_electrons: int | None = None,
    occupation_of: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GroundState:
    """Lowest eigenvalue and eigenvector of the Pauli sum.

    With `n_electrons` given, the matrix is built on the particle sector
    only: basis states are kept iff `occupation_of` (the inverse of the
    fermion-to-qubit encoding, vectorized over index arrays) decodes them
    to the requested electron count. The returned vector is always at the
    full 2^n dimension. Degeneracy is flagged when the gap to the next
    eigenvalue is below 1e-9. Without `n_electrons` the whole 2^n space is
    solved, whatever `occupation_of` is. Every basis is diagonalized block
    by block; a block above 4096 states, or an `eigh` that does not
    converge, raises ValueError (`LinAlgError` is one).
    """
    _check_size(h.n_qubits)
    dim = 1 << h.n_qubits

    if n_electrons is None:
        basis = np.arange(dim)
    else:
        if occupation_of is None:
            raise ValueError("particle-sector restriction needs an occupation decoder")
        basis = _sector_indices(h.n_qubits, n_electrons, occupation_of)
        if basis.size == 0:
            raise ValueError(
                f"empty particle sector: {n_electrons} electrons on {h.n_qubits} qubits"
            )

    rows, cols, entries = _entries(h, basis)
    vals, support, ground = _dense_ground(rows, cols, entries, basis.size)
    degenerate = bool(vals.size > 1 and vals[1] - vals[0] < _DEGENERACY_GAP)

    vector = np.zeros(dim, dtype=np.complex128)
    vector[basis[support]] = ground
    vector = vector / np.linalg.norm(vector)
    return GroundState(energy=float(vals[0]), vector=vector, degenerate=degenerate)
