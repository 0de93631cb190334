"""Slow, independent reference implementations used only by the tests.

Everything here deliberately avoids the package's bitmask arithmetic:
operators are built from Kronecker products of explicit 2x2 matrices,
unitaries from scipy.linalg.expm, and fermionic matrices from direct
ladder-operator action on occupation bitstrings. Agreement between these
routes and the package is what the tests assert. The exceptions are the
scalar Pauli algebra `multiply` and `commutes` on one pair of strings;
`dress_terms` and `map_products`, the term-by-term loops over them that the
array `dress` and the array fermion-to-qubit map must match bit for bit;
and the shot pass's earlier kernels: the `einsum` basis-change gate, the
first-fit grouping over `PauliString` objects, and `sample_energy` built
from those two. The
package's elementwise basis change must give equal amplitudes, its
mask-level grouping the same partition, and its shot pass an equal
`ShotEstimate` for the same seed. `expectation` is the earlier per-term
loop over the full 2^n amplitudes, the slow reference for the package's
entries kernel, which lists the matrix entries on the state's support.
`rotation_sequence` is the earlier dense phase-and-scatter rotation; the
package's pair step must prepare bit-equal amplitudes, since the shot
pass samples their squared moduli. `screen` is flip-index screening term
by term in Python scalars; the package's array screening must return the
same ranking with the same gradient bits. `active_hamiltonian_terms` is
the earlier nested-loop build of the active-space fermion operator, which
the package's index-grid build must match key for key and bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from qccvqe import PauliString

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


def active_hamiltonian_terms(prob) -> dict:
    """The nested-loop build of `build_active_hamiltonian`'s terms.

    Loops over (u, v, spin) for f_inactive, then (u, v, x, y, s, t) for
    1/2 (uv|xy), skipping products with a repeated creation or annihilation
    index and coefficients below 1e-14; the package's index-grid build must
    give the same keys in the same order with the same values.
    """
    o = prob.n_active_orbitals
    terms: dict[tuple, float] = {}

    def add(ops: tuple, coeff: float) -> None:
        if abs(coeff) < 1e-14:
            return
        terms[ops] = terms.get(ops, 0.0) + coeff

    for u in range(o):
        for v in range(o):
            c = prob.f_inactive[u, v]
            for spin in (0, 1):
                add(((2 * u + spin, 1), (2 * v + spin, 0)), c)
    for u in range(o):
        for v in range(o):
            for x in range(o):
                for y in range(o):
                    c = 0.5 * prob.g_active[u, v, x, y]
                    for s in (0, 1):
                        for t in (0, 1):
                            p1, p2 = 2 * u + s, 2 * x + t
                            q2, q1 = 2 * y + t, 2 * v + s
                            if p1 == p2 or q2 == q1:
                                continue
                            add(((p1, 1), (p2, 1), (q2, 0), (q1, 0)), c)
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


def expectation(state, h) -> float:
    """<psi|H|psi> term by term: sum of c <psi|P|psi> over the full 2^n space."""
    from qccvqe.simulator import _pauli_phase_vector

    amp = state.amplitudes
    idx = np.arange(amp.size, dtype=np.uint64)
    total = 0.0 + 0.0j
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        vec = _pauli_phase_vector(x, z, idx) * amp
        total += c * np.dot(amp.conj()[idx ^ np.uint64(x)], vec)
    return float(total.real)


def rotation_sequence(state, pairs) -> np.ndarray:
    """Amplitudes of (U_1 ... U_n)|psi>, U_k = exp(-i tau_k P_k / 2), last pair first.

    Each rotation is cos(tau/2) psi - i sin(tau/2) P psi, with P psi formed by
    multiplying the amplitudes by P's phase vector and scattering them to the
    flipped indices.
    """
    from qccvqe.simulator import _pauli_phase_vector

    amp = state.amplitudes
    idx = np.arange(amp.size, dtype=np.uint64)
    for p, tau in reversed(pairs):
        rotated = _pauli_phase_vector(p.x_mask, p.z_mask, idx) * amp
        if p.x_mask:
            flipped = np.empty_like(rotated)
            flipped[idx ^ np.uint64(p.x_mask)] = rotated
            rotated = flipped
        amp = math.cos(tau / 2.0) * amp - 1j * math.sin(tau / 2.0) * rotated
    return amp


_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k for k = 0..3


def screen(h, label: str) -> list[tuple[int, float]]:
    """Ranked (x_mask, |dE/dtau|) of every flip group, one term at a time.

    Per nonzero x-mask, s sums c i^{|x&z|} (-1)^{|b&z|} from 0j over
    `h.items()` in order, for the label's basis index b. The gradient is
    |Im(phi_R conj(s))| for the representative's phase phi_R, with
    z_R = x & -x. Gradients <= GRAD_EPS are dropped and the rest sorted by
    (-round(g / GRAD_EPS), x).
    """
    from qccvqe.solver import GRAD_EPS

    b = sum(int(ch) << i for i, ch in enumerate(label))

    def phase(x: int, z: int) -> complex:
        return _PHASES[((x & z).bit_count() + 2 * (b & z).bit_count()) % 4]

    sums: dict[int, complex] = {}
    for p, c in h.items():
        if p.x_mask:
            sums[p.x_mask] = sums.get(p.x_mask, 0j) + c * phase(p.x_mask, p.z_mask)
    ranked = []
    for x, s in sums.items():
        g = abs((phase(x, x & -x) * s.conjugate()).imag)
        if g > GRAD_EPS:
            ranked.append((x, g))
    return sorted(ranked, key=lambda xg: (-round(xg[1] / GRAD_EPS), xg[0]))


@dataclass(frozen=True, slots=True)
class PhasedPauli:
    """A Pauli string times an exact fourth root of unity."""

    phase: complex
    string: PauliString

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase}")


def _check_same_qubits(p: PauliString, q: PauliString) -> None:
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"qubit-count mismatch: {p.n_qubits} vs {q.n_qubits}")


def multiply(p: PauliString, q: PauliString) -> PhasedPauli:
    """Exact product p*q.

    The result masks are the XOR of the inputs; the accumulated phase is
    i**k with k tracked mod 4 from the per-qubit letter products.
    """
    _check_same_qubits(p, q)
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    k = (
        (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
        - (x & z).bit_count()
    ) % 4
    return PhasedPauli(_PHASES[k], PauliString(p.n_qubits, x, z))


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff pq = qp (parity of the symplectic form)."""
    _check_same_qubits(p, q)
    return ((p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()) % 2 == 0


def dress_terms(h, p, tau: float, prune: float) -> list[tuple[tuple[int, int], float]]:
    """Term-by-term exp(+i tau p/2) H exp(-i tau p/2) as sorted ((x, z), c) pairs.

    Each anticommuting term C*Q becomes C*cos(tau)*Q + C*sin(tau)*(i p Q);
    like terms are summed in a dict starting from 0.0 and |c| < prune dropped.
    """
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


def ladder_images(mode: int, n: int, mapping: str, dagger: bool) -> list:
    """Textbook images of a+_j (dagger) or a_j as [(1/2, X part), (-+i/2, Y part)].

    Jordan-Wigner: X_j Z_{<j} and Y_j Z_{<j}. Parity: X_{>j} X_j Z_{j-1} and
    X_{>j} Y_j. Written as text labels, qubit 0 leftmost, so no mask of the
    package's encoding table is read.
    """
    j, rest = mode, n - mode - 1
    x_label, y_label = {
        "jordan_wigner": ("Z" * j + "X" + "I" * rest, "Z" * j + "Y" + "I" * rest),
        "parity": (("I" * (j - 1) + "Z" if j else "") + "X" + "X" * rest, "I" * j + "Y" + "X" * rest),
    }[mapping]
    return [(0.5, PauliString.from_label(x_label)),
            (-0.5j if dagger else 0.5j, PauliString.from_label(y_label))]


def map_products(op, mapping: str) -> dict:
    """Term-by-term fermion-to-qubit expansion as {PauliString: complex weight}.

    Each ladder product multiplies its factors' `ladder_images` left to
    right with the scalar `multiply`; like strings are summed in a dict
    from 0j in (term, factor combination) order. `mapping` is a canonical
    name: "jordan_wigner" or "parity".
    """
    n = op.n_spin_orbitals
    out: dict = {}
    for ops, coeff in op.terms.items():
        acc = [(1.0 + 0.0j, PauliString.identity(n))]
        for orb, action in ops:
            factors = ladder_images(orb, n, mapping, action == 1)
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


def apply_single_qubit(state: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """A 2x2 gate on one qubit of a dense vector, contracted by `np.einsum`."""
    n = state.size
    reshaped = state.reshape(n >> (qubit + 1), 2, 1 << qubit)
    out = np.einsum("ab,ibj->iaj", gate, reshaped)
    return np.ascontiguousarray(out).reshape(n)


# Single-qubit basis changes: H maps X -> Z; H.Sdg maps Y -> Z.
H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
HSDG_GATE = np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / math.sqrt(2.0)


def rotate_to_group_basis(state, basis_x: int, basis_z: int) -> np.ndarray:
    """Rotate a Statevector so a group with this shared basis is diagonal."""
    amp = state.amplitudes.copy()
    for qubit in range(state.n_qubits):
        xb = (basis_x >> qubit) & 1
        zb = (basis_z >> qubit) & 1
        if xb and zb:
            amp = apply_single_qubit(amp, HSDG_GATE, qubit)
        elif xb:
            amp = apply_single_qubit(amp, H_GATE, qubit)
    return amp


def qwc_conflict(tx: int, tz: int, gx: int, gz: int) -> bool:
    """True iff (tx, tz) disagrees with the group basis on a shared qubit."""
    return bool(((tx ^ gx) | (tz ^ gz)) & (tx | tz) & (gx | gz))


def group_qwc(h):
    """First-fit QWC partition over `PauliString` objects in canonical order."""
    from qccvqe.simulator import MeasurementGroup, QwcGrouping

    constant = 0.0
    open_groups: list = []
    for p, c in h.items():
        if p.is_identity:
            constant += c
            continue
        for i, (gx, gz, members) in enumerate(open_groups):
            if not qwc_conflict(p.x_mask, p.z_mask, gx, gz):
                members.append((p, c))
                open_groups[i] = (gx | p.x_mask, gz | p.z_mask, members)
                break
        else:
            open_groups.append((p.x_mask, p.z_mask, [(p, c)]))
    groups = tuple(
        MeasurementGroup(gx, gz, tuple(members)) for gx, gz, members in open_groups
    )
    return QwcGrouping(h.n_qubits, constant, groups)


def sample_energy(state, grouping, shots: int, seed: int):
    """The shot pass on `rotate_to_group_basis`: one multinomial per group, in order."""
    from qccvqe.simulator import ShotEstimate, _group_values

    rng = np.random.default_rng(seed)
    energy = grouping.constant
    variance_of_mean = 0.0
    per_group = []
    for group in grouping.groups:
        amp = rotate_to_group_basis(state, group.basis_x, group.basis_z)
        probs = np.abs(amp) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        values = _group_values(group, state.n_qubits)
        mean = float(np.add.reduce(counts * values)) / shots
        second = float(np.add.reduce(counts * values**2)) / shots
        variance_of_mean += max(second - mean * mean, 0.0) / shots
        energy += mean
        per_group.append((mean, float(np.add.reduce(probs * values))))
    return ShotEstimate(
        energy=energy,
        per_group=tuple(per_group),
        seed=seed,
        shots=shots,
        constant=grouping.constant,
        std_error=math.sqrt(variance_of_mean),
    )
