"""Exact ground-state reference via dense or sparse diagonalization.

Provides the dense-matrix rendering of Pauli-sum Hamiltonians and the exact
lowest eigenvalue, optionally restricted to a fixed-electron-number sector.
Every numerical claim elsewhere in the package is checked against this
module, so it stays deliberately simple: one builder lists the matrix
entries of the Pauli sum on a set of basis states (the C(n, N_e) states of
the sector, or all 2^n), and an eigensolver takes the lowest eigenvalues.
The chain6 sector is a 924 x 924 matrix, not a slice of the full 4096 x 4096
one. Entries are real when every term has an even Y count, as in every
mapped FCIDUMP. Dense blocks go to numpy's `eigh`; scipy is imported only
for the sparse eigensolver on larger bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def _entries(
    h: QubitHamiltonian, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the Pauli sum on the sorted basis indices `basis`.

    Entry (r, c) is <basis[r]|H|basis[c]>, from the action
    P|b> = i^{|x&z|} (-1)^{|b&z|} |b ^ x>. Terms sharing an x-mask (adjacent
    in canonical order) send every column to the same row, so their phases
    are summed first and placed once per mask; no (row, col) pair repeats.
    Entries whose row leaves the basis are dropped, which leaves exactly the
    block of the full matrix on `basis`. With an even Y count in every term
    each phase is +/-1, so the values are returned real.
    """
    idx = basis.astype(np.uint64)
    cols = np.arange(idx.size)
    flips, starts = np.unique(h.x, return_index=True)
    rows_all, cols_all, vals_all = [cols[:0]], [cols[:0]], [np.zeros(0, np.complex128)]
    for x_mask, terms in zip(flips.tolist(), np.split(np.arange(len(h)), starts[1:])):
        vals = h.coeff[terms] @ _pauli_phase_vector(h.x[terms, None], h.z[terms, None], idx)
        flipped = idx ^ np.uint64(x_mask)
        rows = np.minimum(np.searchsorted(idx, flipped), idx.size - 1)
        inside = idx[rows] == flipped
        rows_all.append(rows[inside])
        cols_all.append(cols[inside])
        vals_all.append(vals[inside])
    vals = np.concatenate(vals_all)
    if not (np.bitwise_count(h.x & h.z) & 1).any():
        vals = vals.real
    return np.concatenate(rows_all), np.concatenate(cols_all), vals


def to_dense(h: QubitHamiltonian | PauliString) -> np.ndarray:
    """Dense complex128 matrix of a Pauli sum (or a single string).

    Row/column index b has qubit i at bit i. Built from the same phase
    kernel as the simulator rather than Kronecker products, so the bit
    convention cannot drift between the two.
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

    rows, cols, entries = _entries(h, basis)
    # ARPACK needs at least k + 2 = 4 states, so tinier bases go dense.
    if basis.size <= DENSE_MAX_STATES or basis.size < 4:
        mat = np.zeros((basis.size,) * 2, dtype=entries.dtype)
        mat[rows, cols] = entries
        vals, vecs = np.linalg.eigh(mat)
    else:
        import scipy.sparse  # imported here: about 0.1 s that dense solves never need
        import scipy.sparse.linalg

        mat = scipy.sparse.csr_matrix((entries, (rows, cols)), shape=(basis.size,) * 2)
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
