"""Exact ground-state reference via dense or sparse diagonalization.

Provides the dense-matrix rendering of Pauli-sum Hamiltonians and the exact
lowest eigenvalue, optionally restricted to a fixed-electron-number sector.
Every numerical claim elsewhere in the package is checked against this
module, so it stays deliberately simple: one builder puts the Pauli sum on
a set of basis states (the C(n, N_e) states of the sector, or all 2^n), and
an eigensolver takes its two lowest eigenvalues. The chain6 sector is a
924 x 924 matrix, not a slice of the full 4096 x 4096 one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .pauli import PauliString, QubitHamiltonian
from .simulator import _pauli_phase_vector

__all__ = [
    "DENSE_MAX_STATES",
    "ORACLE_MAX_QUBITS",
    "GroundState",
    "to_dense",
    "exact_ground",
]

# Bases of up to this many states are diagonalized densely (the 924-state
# 12-qubit half-filling sector among them); larger ones, such as the full
# 4096-state 12-qubit space, go to the iterative extremal eigensolver.
# Inputs above 14 qubits are refused.
DENSE_MAX_STATES = 1024
ORACLE_MAX_QUBITS = 14

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


def _matrix(h: QubitHamiltonian, basis: np.ndarray) -> scipy.sparse.csr_matrix:
    """Pauli sum on the sorted basis indices `basis`, as CSR.

    Entry (r, c) is <basis[r]|H|basis[c]>, from the action
    P|b> = i^{|x&z|} (-1)^{|b&z|} |b ^ x>. Terms sharing an x-mask send
    every column to the same row, so their phases are summed first and
    placed once per mask. Entries whose row leaves the basis are dropped,
    which leaves exactly the block of the full matrix on `basis`.
    """
    idx = basis.astype(np.uint64)
    by_flip: dict[int, np.ndarray] = {}
    for p, c in h.items():
        vals = c * _pauli_phase_vector(p.x_mask, p.z_mask, idx)
        prev = by_flip.get(p.x_mask)
        by_flip[p.x_mask] = vals if prev is None else prev + vals
    cols = np.arange(idx.size)
    rows_all, cols_all, vals_all = [], [], []
    for x_mask, vals in by_flip.items():
        flipped = idx ^ np.uint64(x_mask)
        rows = np.minimum(np.searchsorted(idx, flipped), idx.size - 1)
        inside = idx[rows] == flipped
        rows_all.append(rows[inside])
        cols_all.append(cols[inside])
        vals_all.append(vals[inside])
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(idx.size, idx.size),
    )


def to_dense(h: QubitHamiltonian | PauliString) -> np.ndarray:
    """Dense matrix of a Pauli sum (or a single string) in the shared basis.

    Row/column index b has qubit i at bit i. Built from the same phase
    kernel as the simulator rather than Kronecker products, so the bit
    convention cannot drift between the two.
    """
    if isinstance(h, PauliString):
        h = QubitHamiltonian(h.n_qubits, {h: 1.0})
    _check_size(h.n_qubits)
    return _matrix(h, np.arange(1 << h.n_qubits)).toarray()


def _sector_indices(
    n_qubits: int, n_electrons: int, occupation_of: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Basis indices whose decoded occupation has the requested electron count."""
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    occ = occupation_of(idx)
    counts = np.bitwise_count(occ).astype(np.int64)
    return np.flatnonzero(counts == n_electrons)


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
    eigenvalue is below 1e-9. A sparse eigensolver that does not converge
    raises ValueError.
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

    mat = _matrix(h, basis)
    # ARPACK needs at least k + 2 = 4 states, so tinier bases go dense.
    if basis.size <= DENSE_MAX_STATES or basis.size < 4:
        top = min(1, basis.size - 1)
        vals, vecs = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, top])
    else:
        try:
            # A seeded start vector keeps reruns byte-identical.
            start = np.random.default_rng(0).uniform(-1.0, 1.0, basis.size)
            vals, vecs = scipy.sparse.linalg.eigsh(mat, k=2, which="SA", v0=start)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ValueError(f"sparse eigensolver did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    degenerate = bool(vals.size > 1 and vals[1] - vals[0] < _DEGENERACY_GAP)

    vector = np.zeros(dim, dtype=np.complex128)
    vector[basis] = vecs[:, 0]
    vector = vector / np.linalg.norm(vector)
    return GroundState(energy=float(vals[0]), vector=vector, degenerate=degenerate)
