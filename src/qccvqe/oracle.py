"""Exact ground-state reference via a matrix-free Lanczos solve.

Provides the dense-matrix rendering of Pauli-sum Hamiltonians and the exact
lowest eigenvalue, on all 2^n basis states or on those its caller lists.
Every numerical claim elsewhere in the package is checked against this
module, so it stays deliberately simple: the simulator's entries kernel,
which also gives every solver and statevector energy, lists the matrix
entries of the Pauli sum on a set of basis states (the C(n, N_e) states of
a sector, or all 2^n), and a Lanczos solve (Lanczos, J. Res. NBS 45, 255
(1950)) applies them with `np.bincount`, never forming the matrix.

Every sum, in the kernel and here, is the simulator's ufunc reduction, and
the tridiagonal problem is solved in Python floats, so no LAPACK call is
made and no BLAS thread count moves the bits. The solve stops when the Ritz
residual ||Hx - theta x|| is below 1e-10 of the power of two above the largest
|coefficient|: an eigenvalue lies within that residual of the energy
(Parlett, The Symmetric Eigenvalue Problem, ch. 4). The whole basis is one
solve, whatever its connected blocks; a pseudo-random start vector has
weight on all of them. Entries are real when every term has an even Y
count, as in every mapped FCIDUMP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chem import occupation_decoder
from .pauli import PauliString, QubitHamiltonian
from .simulator import _entries, _indices, _norm, _sum

__all__ = [
    "ORACLE_MAX_QUBITS",
    "GroundState",
    "to_dense",
    "exact_ground",
    "sector_basis",
]

# Inputs above 14 qubits are refused, by the dense rendering and the solve alike.
ORACLE_MAX_QUBITS = 14

_DEGENERACY_GAP = 1e-9
# Ritz residual at which a solve stops, in units of the power of two above
# the largest |coefficient|, and the Lanczos steps it may take to get there.
_RESIDUAL = 1e-10
_MAX_STEPS = 300


def _check_size(n_qubits: int) -> None:
    if n_qubits > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle ceiling is {ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )


@dataclass(frozen=True, slots=True)
class GroundState:
    """Lowest eigenvalue with one representative eigenvector, indexed like the
    basis solved on, and its residual ||H v - energy v||."""

    energy: float
    vector: np.ndarray
    degenerate: bool
    residual: float


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


def sector_basis(mapping: str, n_qubits: int, n_electrons: int) -> np.ndarray:
    """Increasing basis indices whose occupation, decoded under `mapping`, holds
    `n_electrons` electrons: the particle sector for `exact_ground`."""
    _check_size(n_qubits)
    occ = occupation_decoder(mapping, n_qubits)(_indices(n_qubits))
    return np.flatnonzero(np.bitwise_count(occ) == n_electrons)


def _start(basis: np.ndarray, run: int) -> np.ndarray:
    """Fixed pseudo-random start in [-1, 1): the splitmix64 hash of (basis
    index, run), which no symmetry permuting the basis states leaves alone."""
    z = basis.astype(np.uint64) * np.uint64(2) + np.uint64(run + 0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0


def _tridiagonal_ground(alpha: list[float], beta: list[float], upper: float):
    """Lowest eigenpair of the tridiagonal matrix T with diagonal `alpha` and
    off-diagonal `beta`, given an `upper` bound on its eigenvalue.

    T - x is positive definite iff every pivot of its factorization is
    positive (a Sturm count of zero), which keeps lo below the eigenvalue and
    hi at or above it. The pivots run from the last row up, so the final one
    is concave and falling in x up to its pole, the lowest eigenvalue of T
    without its first row; Newton steps on it from above move hi down to the
    eigenvalue without passing it. Bisection takes over when a step leaves
    the bracket. A 1x1 T returns its entry. Inverse iteration on the pivots
    at the eigenvalue gives the unit vector.
    """
    alpha, beta = alpha[::-1], beta[::-1]
    pairs = list(zip(alpha, [0.0] + [b * b for b in beta]))

    def last_pivot(x: float) -> tuple[float, float]:
        """Final pivot of T - x and its slope; -inf once an earlier pivot is not positive."""
        pivot, slope = 1.0, -1.0
        for a, b2 in pairs:
            if pivot <= 0.0:
                return -math.inf, -1.0
            ratio = b2 / pivot
            pivot, slope = a - x - ratio, ratio * slope / pivot - 1.0
        return pivot, slope

    hi = min(upper, alpha[-1])
    lo = hi - 2.0 * max(beta, default=0.5)  # at or below the Gershgorin bound
    while last_pivot(lo)[0] <= 0.0:
        lo -= 2.0 * (hi - lo) or 1.0
    x = hi
    while True:
        pivot, slope = last_pivot(x)
        lo, hi = (x, hi) if pivot > 0.0 else (lo, x)
        step = x - pivot / slope
        if step == x:
            break  # the Newton step rounds to nothing
        if lo < step < hi:
            x = step
        elif x == hi and -math.inf < step <= lo:
            x = lo  # rounding put the eigenvalue at lo; step from there
        elif not lo < (x := 0.5 * (lo + hi)) < hi:
            x = lo  # adjacent floats
            break
    d = [alpha[0] - x]
    for a, b2 in pairs[1:]:
        d.append(a - x - b2 / d[-1])
    if abs(d[-1]) < 2.0**-60:  # x is the eigenvalue to the last bits
        d[-1] = 2.0**-60
    ratios = [b / p for b, p in zip(beta, d)]
    # a ramp has weight on the even and the odd vectors of a mirror-symmetric T alike
    y = [float(i) for i in range(1, len(alpha) + 1)]
    for _ in range(2):
        for i, ratio in enumerate(ratios):
            y[i + 1] -= ratio * y[i]
        y[-1] /= d[-1]
        for i in range(len(ratios) - 1, -1, -1):
            y[i] = y[i] / d[i] - ratios[i] * y[i + 1]
        scale = math.hypot(*y)
        y = [v / scale for v in y]
    return x, np.array(y[::-1])


def _lanczos(
    apply: Callable[[np.ndarray], np.ndarray], start: np.ndarray, locked: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Lowest Ritz value, its unit vector and its residual ||Hx - theta x||, of
    `apply` on the Krylov space of `start` kept orthogonal to the rows of `locked`.

    Each new vector is orthogonalized twice against every earlier one and
    against `locked`, so the basis holds one row per step taken; the first
    pass's coefficient on the newest vector is the diagonal entry alpha_k. The
    estimate beta_k |s_k| of the residual decides when to form the Ritz
    vector; the residual of the vector itself decides when to stop.
    """
    steps = min(start.size - len(locked), _MAX_STEPS)
    basis = locked
    alpha: list[float] = []
    beta: list[float] = []
    theta = math.inf
    w = start.astype(locked.dtype)
    while True:
        for sweep in range(2):
            coeffs = _sum(basis.conj() * w, axis=1)
            w = w - _sum(coeffs[:, None] * basis, axis=0)
            if sweep == 0 and len(basis) > len(locked):
                alpha.append(float(coeffs[-1].real))
        norm = _norm(w)
        if alpha:
            theta, s = _tridiagonal_ground(alpha, beta, theta)
            if norm * abs(s[-1]) <= _RESIDUAL:
                x = _sum(s[:, None] * basis[len(locked):], axis=0)
                x = x / _norm(x)
                residual = _norm(apply(x) - theta * x)
                if residual <= _RESIDUAL:
                    return theta, x, residual
            if norm == 0.0 or len(alpha) == steps:
                break
            beta.append(norm)
        v = w / norm
        basis = np.concatenate([basis, v[None]])
        w = apply(v)
    raise ValueError(
        f"Lanczos did not reach a residual of {_RESIDUAL:g} within {len(alpha)} steps"
    )


def exact_ground(h: QubitHamiltonian, basis: np.ndarray | None = None) -> GroundState:
    """Lowest eigenvalue and eigenvector of the Pauli sum on `basis`.

    `basis` lists the basis indices spanned, such as a particle sector from
    `sector_basis`, and None is all 2^n. Anything but a non-empty 1-D array of
    strictly increasing integers in [0, 2^n) raises ValueError. The vector has
    one amplitude per entry of `basis`, in its order; it is float64 if the entries are.

    The coefficients are scaled by the power of two above their largest
    magnitude before the entries sum them, as LAPACK's `eigh` scales its
    matrix, so sums near the float64 limit still give a finite energy.
    Degeneracy is flagged when a second solve, kept orthogonal to the ground
    vector, finds an eigenvalue less than 1e-9 above it. A solve that misses
    its residual within its step cap raises ValueError.
    """
    _check_size(h.n_qubits)
    dim = 1 << h.n_qubits
    basis = np.arange(dim) if basis is None else np.asarray(basis)
    shaped = basis.ndim == 1 and basis.size and np.issubdtype(basis.dtype, np.integer)
    if not (shaped and basis[0] >= 0 and basis[-1] < dim and (basis[1:] > basis[:-1]).all()):
        raise ValueError("basis must be non-empty, 1-D, integer, strictly increasing, in [0, 2^n)")

    # 2**exponent is above the largest |coefficient|, so no entry sum can overflow
    exponent = math.frexp(float(np.abs(h.coeff).max(initial=0.0)))[1]
    rows, cols, entries = _entries(h, basis, exponent=exponent)

    def apply(v: np.ndarray) -> np.ndarray:
        terms = entries * v[cols]
        if terms.dtype == np.float64:
            return np.bincount(rows, terms, basis.size)
        real, imag = (np.bincount(rows, part, basis.size) for part in (terms.real, terms.imag))
        return real + 1j * imag

    empty = np.zeros((0, basis.size), dtype=entries.dtype)
    theta, ground, residual = _lanczos(apply, _start(basis, 0), empty)
    degenerate = False
    if basis.size > 1:
        second = _lanczos(apply, _start(basis, 1), ground[None, :])[0]
        degenerate = second - theta < math.ldexp(_DEGENERACY_GAP, -exponent)
    return GroundState(
        energy=_unscale(theta, exponent),
        vector=ground,
        degenerate=degenerate,
        residual=_unscale(residual, exponent),
    )


def _unscale(value: float, exponent: int) -> float:
    """value * 2**exponent, infinite where that overflows float64."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)
