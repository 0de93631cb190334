"""Slow, independent reference implementations used only by the tests.

Everything here deliberately avoids the package's bitmask arithmetic:
operators are built from Kronecker products of explicit 2x2 matrices,
unitaries from scipy.linalg.expm, and fermionic matrices from direct
ladder-operator action on occupation bitstrings. Agreement between these
routes and the package is what the tests assert. The exceptions are
`dress_terms` and `map_products`, the term-by-term loops over the package's
scalar `commutes` and `multiply` that the array `dress` and the array
fermion-to-qubit map must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

SINGLE = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label, qubit 0 leftmost and least significant.

    Each successive letter becomes the outer Kronecker factor, so qubit 0
    ends up indexing the fastest-varying bit of the matrix index.
    """
    mat = np.eye(1, dtype=np.complex128)
    for ch in label:
        mat = np.kron(SINGLE[ch], mat)
    return mat


def ham_matrix(h) -> np.ndarray:
    """Dense matrix of a QubitHamiltonian via its text labels only."""
    dim = 1 << h.n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for p, c in h.items():
        mat += c * label_matrix(p.to_label())
    return mat


def rotation_matrix(p_mat: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau P / 2) as a dense matrix."""
    return expm(-0.5j * tau * p_mat)


def dress_matrix(h_mat: np.ndarray, p_mat: np.ndarray, tau: float) -> np.ndarray:
    """exp(+i tau P / 2) H exp(-i tau P / 2) as a dense matrix."""
    u = expm(0.5j * tau * p_mat)
    return u @ h_mat @ u.conj().T


def fermion_matrix(n_spin_orbitals: int, terms) -> np.ndarray:
    """Occupation-basis matrix of a sum of ladder-operator products.

    Bit i of the basis index is the occupation of spin orbital i. Products
    act right to left; each creation or annihilation flips its bit and
    contributes (-1)^(occupied orbitals below it), evaluated on the state
    as it stands when that operator acts.
    """
    dim = 1 << n_spin_orbitals
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for ops, coeff in terms.items():
        for col in range(dim):
            state = col
            sign = 1.0
            dead = False
            for orb, action in reversed(ops):
                occ = (state >> orb) & 1
                if (action == 1 and occ) or (action == 0 and not occ):
                    dead = True
                    break
                if (state & ((1 << orb) - 1)).bit_count() & 1:
                    sign = -sign
                state ^= 1 << orb
            if not dead:
                mat[state, col] += coeff * sign
    return mat


def integral_terms(ints) -> dict:
    """Ladder products straight from spatial-orbital integral tensors.

    Spin orbital 2p+s holds spatial orbital p with spin s. The two-body sum
    carries 1/2 (uv|xy) a+_{u s} a+_{x t} a_{y t} a_{v s} over both spins,
    with no index bookkeeping beyond skipping zero coefficients.
    """
    terms: dict[tuple, float] = {}

    def add(ops: tuple, coeff: float) -> None:
        if coeff != 0.0:
            terms[ops] = terms.get(ops, 0.0) + coeff

    n = ints.n_orbitals
    for u in range(n):
        for v in range(n):
            for s in range(2):
                add(((2 * u + s, 1), (2 * v + s, 0)), float(ints.h1[u, v]))
    for u in range(n):
        for v in range(n):
            for x in range(n):
                for y in range(n):
                    c = 0.5 * float(ints.g2[u, v, x, y])
                    if c == 0.0:
                        continue
                    for s in range(2):
                        for t in range(2):
                            add(
                                (
                                    (2 * u + s, 1),
                                    (2 * x + t, 1),
                                    (2 * y + t, 0),
                                    (2 * v + s, 0),
                                ),
                                c,
                            )
    return terms


def qwc_compatible(a: str, b: str) -> bool:
    """Letter-by-letter qubit-wise commutation of two Pauli labels."""
    return all(x == "I" or y == "I" or x == y for x, y in zip(a, b))


def centered_difference(f, eps: float = 1e-5) -> float:
    """Symmetric finite-difference derivative of f at zero."""
    return (f(eps) - f(-eps)) / (2.0 * eps)


def random_label(rng: np.random.Generator, n_qubits: int) -> str:
    return "".join(rng.choice(list("IXYZ"), size=n_qubits))


def random_hamiltonian(
    rng: np.random.Generator, n_qubits: int, n_terms: int, even_y: bool = False
):
    """Random real Pauli sum with distinct strings; identity may appear.

    With `even_y`, every string has an even number of Y letters, so the
    matrix is real. The term count is capped at the number of such strings.
    """
    from qccvqe import QubitHamiltonian

    n_terms = min(n_terms, (4**n_qubits + 2**n_qubits) // 2 if even_y else 4**n_qubits)
    coeffs: dict[str, float] = {}
    while len(coeffs) < n_terms:
        label = random_label(rng, n_qubits)
        if not (even_y and label.count("Y") % 2):
            coeffs[label] = float(rng.normal(0.0, 1.0))
    return QubitHamiltonian.from_labels(coeffs)


def dress_terms(h, p, tau: float, prune: float) -> list[tuple[tuple[int, int], float]]:
    """Term-by-term exp(+i tau p/2) H exp(-i tau p/2) as sorted ((x, z), c) pairs.

    Each anticommuting term C*Q becomes C*cos(tau)*Q + C*sin(tau)*(i p Q);
    like terms are summed in a dict starting from 0.0 and |c| < prune dropped.
    """
    from qccvqe import commutes, multiply

    c, s = math.cos(tau), math.sin(tau)
    out: dict = {}
    for q, coeff in h.items():
        if commutes(p, q):
            out[q] = out.get(q, 0.0) + coeff
            continue
        out[q] = out.get(q, 0.0) + coeff * c
        prod = multiply(p, q)
        sign = (1j * prod.phase).real
        assert sign in (1.0, -1.0)
        out[prod.string] = out.get(prod.string, 0.0) + coeff * s * sign
    return sorted((q.key(), v) for q, v in out.items() if abs(v) >= prune)


def map_products(op, mapping: str) -> dict:
    """Term-by-term fermion-to-qubit expansion as {PauliString: complex weight}.

    Each ladder product multiplies its factors' images left to right with
    the scalar `multiply`; like strings are summed in a dict from 0j in
    (term, factor combination) order.
    """
    from qccvqe import PauliString, multiply
    from qccvqe.chem import _LADDERS, normalize_mapping

    ladder = _LADDERS[normalize_mapping(mapping)]
    n = op.n_spin_orbitals
    out: dict = {}
    for ops, coeff in op.terms.items():
        acc = [(1.0 + 0.0j, PauliString.identity(n))]
        for orb, action in ops:
            factors = ladder(orb, n, action == 1)
            acc = [
                (c1 * c2 * prod.phase, prod.string)
                for c1, p1 in acc
                for c2, p2 in factors
                for prod in (multiply(p1, p2),)
            ]
        for c, p in acc:
            out[p] = out.get(p, 0.0 + 0.0j) + coeff * c
    return out


def map_operator(op, mapping: str):
    """QubitHamiltonian from the real parts of `map_products`."""
    from qccvqe import QubitHamiltonian

    weights = map_products(op, mapping)
    return QubitHamiltonian(op.n_spin_orbitals, {p: c.real for p, c in weights.items()})


def generator_paulis(exc, n_spin_orbitals: int, mapping: str) -> list:
    """Per-excitation (PauliString, imaginary weight) lists from `map_products`."""
    from qccvqe import FermionOperator

    pairs = [(((m, 1), (a, 0)), ((a, 1), (m, 0))) for a, m in exc.singles]
    pairs += [
        (((m, 1), (n, 1), (b, 0), (a, 0)), ((a, 1), (b, 1), (n, 0), (m, 0)))
        for a, b, m, n in exc.doubles
    ]
    out = []
    for ops, ops_dag in pairs:
        op = FermionOperator(n_spin_orbitals, {ops: 1.0, ops_dag: -1.0})
        weights = sorted(map_products(op, mapping).items(), key=lambda kv: kv[0].key())
        assert all(abs(c.real) <= 1e-10 for _, c in weights)
        out.append([(p, c.imag) for p, c in weights if abs(c.imag) > 1e-12])
    return out
