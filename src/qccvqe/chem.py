"""Electronic-structure ingestion and fermion-to-qubit mapping.

Pipeline: parse an FCIDUMP file into spatial-orbital integrals, fold doubly
occupied orbitals into an inactive Fock matrix and scalar energy, expand the
active-space operator over spin orbitals, and map it to a qubit Hamiltonian
under the Jordan-Wigner or Parity encoding. Also enumerates spin-conserving
UCCSD excitations and their Pauli generator decompositions.

Spin-orbital convention: spatial orbital u yields spin orbitals 2u (alpha)
and 2u+1 (beta), so same-orbital pairs sit on adjacent qubits. Two-electron
integrals are stored in chemist notation g[p,q,r,s] = (pq|rs).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .pauli import (DEFAULT_PRUNE, HAMILTONIAN_MAX_QUBITS, PauliString,
                    QubitHamiltonian, _product)
from .simulator import _PHASES

__all__ = [
    "FcidumpError",
    "ElectronIntegrals",
    "ActiveSpaceProblem",
    "FermionOperator",
    "ExcitationList",
    "parse_fcidump",
    "cas_reduce",
    "default_window",
    "build_active_hamiltonian",
    "map_operator",
    "normalize_mapping",
    "occupation_decoder",
    "hf_bitstring",
    "uccsd_excitations",
    "uccsd_generator_paulis",
    "MAPPINGS",
]

_SYMTOL = 1e-10


class FcidumpError(ValueError):
    """Malformed FCIDUMP content, annotated with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ElectronIntegrals:
    """Spatial-orbital integrals in Hartree, chemist convention (pq|rs)."""

    n_orbitals: int
    h1: np.ndarray
    g2: np.ndarray
    e_nuclear: float
    n_electrons: int
    ms2: int

    def __post_init__(self) -> None:
        n = self.n_orbitals
        if self.h1.shape != (n, n):
            raise ValueError(f"h1 shape {self.h1.shape} does not match {n} orbitals")
        if self.g2.shape != (n, n, n, n):
            raise ValueError(f"g2 shape {self.g2.shape} does not match {n} orbitals")
        if np.max(np.abs(self.h1 - self.h1.T)) > _SYMTOL:
            raise ValueError("h1 is not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.g2 - self.g2.transpose(perm))) > _SYMTOL:
                raise ValueError(f"g2 violates permutational symmetry {perm}")


_NAMELIST_KEY = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=,]*?)(?:,|$)")


def _parse_header(lines: list[tuple[int, str]]) -> tuple[dict[str, str], int]:
    """Read the &FCI namelist; returns (fields, index of first data line)."""
    if not lines:
        raise FcidumpError("empty file")
    lineno, first = lines[0]
    if not first.lstrip().upper().startswith("&FCI"):
        raise FcidumpError("expected '&FCI' namelist header", lineno)
    header_text = first.lstrip()[4:]
    consumed = 1
    terminated = False
    for lineno, line in lines[1:]:
        stripped = header_text.strip()
        if stripped.endswith("&END") or stripped.endswith("/"):
            terminated = True
            break
        header_text += " " + line
        consumed += 1
    stripped = header_text.strip()
    if stripped.endswith("&END"):
        header_text = stripped[: -len("&END")]
        terminated = True
    elif stripped.endswith("/"):
        header_text = stripped[:-1]
        terminated = True
    if not terminated:
        raise FcidumpError("namelist header never terminated by '&END' or '/'")
    fields = {
        key.upper(): value.strip()
        for key, value in _NAMELIST_KEY.findall(header_text)
    }
    return fields, consumed


def parse_fcidump(source: str | TextIO) -> ElectronIntegrals:
    """Parse FCIDUMP text (path contents or open stream) into integrals.

    Data lines read `value i j k l` with 1-based orbital indices:
    all-zero indices give the nuclear repulsion, k = l = 0 gives h1 entries
    (stored symmetrically), a single nonzero index is an orbital-energy
    line and is skipped, and four nonzero indices give (ij|kl) expanded to
    all eight chemist-notation permutations.
    """
    text = source if isinstance(source, str) else source.read()
    lines = [
        (i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    fields, consumed = _parse_header(lines)
    for key in ("NORB", "NELEC"):
        if key not in fields:
            raise FcidumpError(f"namelist is missing {key}")
    try:
        n_orb = int(fields["NORB"])
        n_elec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", "0"))
    except ValueError as exc:
        raise FcidumpError(f"non-integer namelist value: {exc}") from None
    if n_orb < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orb}")
    if not 0 <= n_elec <= 2 * n_orb:
        raise FcidumpError(f"NELEC={n_elec} impossible for NORB={n_orb}")

    h1 = np.zeros((n_orb, n_orb))
    g2 = np.zeros((n_orb, n_orb, n_orb, n_orb))
    e_nuclear = 0.0
    for lineno, line in lines[consumed:]:
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(
                f"expected 'value i j k l', got {len(parts)} fields", lineno
            )
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise FcidumpError(f"non-numeric value {parts[0]!r}", lineno) from None
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value {parts[0]!r}", lineno)
        try:
            i, j, k, l = (int(s) for s in parts[1:])
        except ValueError:
            raise FcidumpError(f"non-integer index in {parts[1:]!r}", lineno) from None
        for idx in (i, j, k, l):
            if not 0 <= idx <= n_orb:
                raise FcidumpError(f"orbital index {idx} out of range 0..{n_orb}", lineno)
        if i == j == k == l == 0:
            e_nuclear = value
        elif k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy line, not used
            p, q = i - 1, j - 1
            h1[p, q] = value
            h1[q, p] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"partial zero indices {parts[1:]!r}", lineno)
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in (
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                g2[a, b, c, d] = value
    return ElectronIntegrals(
        n_orbitals=n_orb, h1=h1, g2=g2, e_nuclear=e_nuclear,
        n_electrons=n_elec, ms2=ms2,
    )


@dataclass(frozen=True)
class ActiveSpaceProblem:
    """Active-space integrals after folding out doubly occupied orbitals."""

    n_active_orbitals: int
    n_active_electrons: int
    f_inactive: np.ndarray
    g_active: np.ndarray
    e_inactive: float
    e_nuclear: float

    def __post_init__(self) -> None:
        o = self.n_active_orbitals
        if self.f_inactive.shape != (o, o):
            raise ValueError(f"f_inactive shape {self.f_inactive.shape} vs {o} orbitals")
        if self.g_active.shape != (o, o, o, o):
            raise ValueError(f"g_active shape {self.g_active.shape} vs {o} orbitals")
        if np.max(np.abs(self.f_inactive - self.f_inactive.T)) > _SYMTOL:
            raise ValueError("f_inactive is not symmetric")
        if not 0 <= self.n_active_electrons <= 2 * o:
            raise ValueError(
                f"{self.n_active_electrons} electrons impossible in {o} orbitals"
            )

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * self.n_active_orbitals


def default_window(
    ints: ElectronIntegrals, n_active_electrons: int, n_active_orbitals: int
) -> range:
    """Contiguous active window after the doubly occupied lowest orbitals."""
    n_inactive_elec = ints.n_electrons - n_active_electrons
    if n_inactive_elec < 0 or n_inactive_elec % 2:
        raise ValueError(
            f"{n_active_electrons} active electrons of {ints.n_electrons} leave "
            f"{n_inactive_elec} to freeze (negative or odd)"
        )
    start = n_inactive_elec // 2
    return range(start, start + n_active_orbitals)


def cas_reduce(
    ints: ElectronIntegrals,
    window: Sequence[int] | range,
    n_active_electrons: int,
) -> ActiveSpaceProblem:
    """Fold doubly occupied orbitals below the window into scalar + Fock terms.

    The inactive orbitals are the lowest (n_electrons - n_active) / 2
    orbitals outside the window; each contributes its closed-shell Coulomb
    and exchange fields to the active one-body matrix and a constant to the
    inactive energy. Orbitals above the window are dropped.
    """
    active = sorted(int(u) for u in window)
    if len(set(active)) != len(active):
        raise ValueError(f"duplicate orbitals in active window {active}")
    if not active:
        raise ValueError("empty active window")
    if active[0] < 0 or active[-1] >= ints.n_orbitals:
        raise ValueError(
            f"active window {active} exceeds orbital range 0..{ints.n_orbitals - 1}"
        )
    n_inactive_elec = ints.n_electrons - n_active_electrons
    if n_inactive_elec < 0 or n_inactive_elec % 2:
        raise ValueError(
            f"inactive electron count {n_inactive_elec} is negative or odd"
        )
    n_inactive = n_inactive_elec // 2
    rest = [u for u in range(ints.n_orbitals) if u not in set(active)]
    inactive = rest[:n_inactive]
    if len(inactive) < n_inactive:
        raise ValueError(
            f"need {n_inactive} inactive orbitals but only {len(rest)} outside window"
        )
    if any(u > active[0] for u in inactive):
        raise ValueError(
            f"inactive orbitals {inactive} are not all below the window {active}"
        )

    h1, g2 = ints.h1, ints.g2
    act = np.array(active, dtype=int)
    f = h1.copy()
    for i in inactive:
        f += 2.0 * g2[i, i, :, :] - g2[i, :, :, i]
    e_inactive = 0.0
    for i in inactive:
        e_inactive += h1[i, i] + f[i, i]
    f_active = f[np.ix_(act, act)]
    g_active = g2[np.ix_(act, act, act, act)]
    return ActiveSpaceProblem(
        n_active_orbitals=len(active),
        n_active_electrons=n_active_electrons,
        f_inactive=f_active,
        g_active=g_active,
        e_inactive=float(e_inactive),
        e_nuclear=ints.e_nuclear,
    )


# A product of ladder operators is a tuple of (spin orbital, action) with
# action 1 for creation and 0 for annihilation, listed left to right.
LadderProduct = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FermionOperator:
    """Real-coefficient sum of number-conserving ladder-operator products."""

    n_spin_orbitals: int
    terms: Mapping[LadderProduct, float]

    def __post_init__(self) -> None:
        for ops, coeff in self.terms.items():
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient for {ops}")
            creations = sum(1 for _, action in ops if action == 1)
            if 2 * creations != len(ops):
                raise ValueError(f"product {ops} does not conserve particle number")
            for orb, action in ops:
                if not 0 <= orb < self.n_spin_orbitals:
                    raise ValueError(f"spin orbital {orb} out of range in {ops}")
                if action not in (0, 1):
                    raise ValueError(f"invalid action {action} in {ops}")


def build_active_hamiltonian(prob: ActiveSpaceProblem) -> FermionOperator:
    """Spin-orbital second-quantized operator for the active space.

    One-body part sums f_inactive over both spins; the two-body part carries
    the 1/2 prefactor with physicist-ordered a+ a+ a a built from chemist
    integrals (uv|xy):  1/2 (uv|xy) a+_{u s} a+_{x t} a_{y t} a_{v s}.
    Products with a repeated creation or annihilation index vanish and are
    skipped.
    """
    o = prob.n_active_orbitals
    terms: dict[LadderProduct, float] = {}

    def add(ops: LadderProduct, coeff: float) -> None:
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
    return FermionOperator(n_spin_orbitals=2 * o, terms=terms)


LadderTerms = list[tuple[complex, PauliString]]


def _jw_ladder(orb: int, n_qubits: int, dagger: bool) -> LadderTerms:
    """Jordan-Wigner image: a+_p = (X_p - iY_p)/2 times Z on qubits < p."""
    chain = (1 << orb) - 1
    x_bit = 1 << orb
    x_part = PauliString(n_qubits, x_bit, chain)
    y_part = PauliString(n_qubits, x_bit, chain | x_bit)
    y_coeff = -0.5j if dagger else 0.5j
    return [(0.5, x_part), (y_coeff, y_part)]


def _parity_ladder(orb: int, n_qubits: int, dagger: bool) -> LadderTerms:
    """Parity-encoding image: qubit j stores the occupation parity of 0..j.

    a+_j = X on all update qubits > j times (X_j Z_{j-1} - i Y_j)/2; the
    Z_{j-1} factor reads the parity of modes below j.
    """
    update = ((1 << n_qubits) - 1) & ~((1 << orb) - 1)
    z_prev = (1 << (orb - 1)) if orb > 0 else 0
    xz_part = PauliString(n_qubits, update, z_prev)
    y_part = PauliString(n_qubits, update, 1 << orb)
    y_coeff = -0.5j if dagger else 0.5j
    return [(0.5, xz_part), (y_coeff, y_part)]


_LADDERS: dict[str, Callable[[int, int, bool], LadderTerms]] = {
    "jordan_wigner": _jw_ladder,
    "parity": _parity_ladder,
}

MAPPINGS = tuple(_LADDERS)

_ALIASES = {
    "jw": "jordan_wigner",
    "jordan-wigner": "jordan_wigner",
    "jordan_wigner": "jordan_wigner",
    "parity": "parity",
}


def normalize_mapping(name: str) -> str:
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown mapping {name!r}; choose from {sorted(set(_ALIASES))}"
        ) from None


def _map_products(
    op: FermionOperator, mapping: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand every ladder product into Pauli strings with complex weights.

    Returns canonical (x, z, w) arrays: distinct masks in (x, z) order and
    their summed weights. From a table of ladder images indexed by (orbital,
    action, factor), all products expand together, one ladder position at a
    time: masks and phase exponent from `pauli._product`, weights c1 * c2 *
    phase, exact (+/-2^-k or +/-2^-k i). The zero-weight copies that
    padding adds change no sum. Like strings are summed in (term, factor
    combination) order, as the scalar loop `map_products` in
    tests/reference.py sums them, so the result is bit-identical to it.
    """
    ladder = _LADDERS[normalize_mapping(mapping)]
    n = op.n_spin_orbitals
    if not 1 <= n <= HAMILTONIAN_MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{HAMILTONIAN_MAX_QUBITS}, got {n}")
    # Row 2 * orbital + action holds that ladder operator's two factors; the
    # last row, identity with weights 1 and 0, pads shorter products.
    factors = [(p.x_mask, p.z_mask, c) for orb in range(n) for action in (0, 1)
               for c, p in ladder(orb, n, action == 1)] + [(0, 0, 1.0), (0, 0, 0.0)]
    lx, lz, lw = (np.array(column, dtype).reshape(-1, 2) for column, dtype
                  in zip(zip(*factors), (np.uint64, np.uint64, np.complex128)))
    length = max(map(len, op.terms), default=0)
    rows = [[2 * orb + act for orb, act in ops] + [2 * n] * (length - len(ops)) for ops in op.terms]
    slots = np.array(rows, np.intp).reshape(len(rows), length)
    x = z = np.zeros((len(op.terms), 1), np.uint64)
    w = np.ones((len(op.terms), 1), np.complex128)
    for j in range(length):
        fx, fz, fw = (a[slots[:, j], None, :] for a in (lx, lz, lw))
        x, z, k = _product(x[:, :, None], z[:, :, None], fx, fz)
        w = w[:, :, None] * fw * _PHASES[k]
        x, z, w = (a.reshape(len(op.terms), -1) for a in (x, z, w))
    shift = np.uint64(n)
    key, slot = np.unique(((x << shift) | z).ravel(), return_inverse=True)
    w = (np.array(list(op.terms.values()), np.float64)[:, None] * w).ravel()
    w = np.bincount(slot, w.real) + 1j * np.bincount(slot, w.imag)
    return key >> shift, key & np.uint64((1 << n) - 1), w


def map_operator(
    op: FermionOperator, mapping: str, prune: float = DEFAULT_PRUNE
) -> QubitHamiltonian:
    """Qubit image of a Hermitian FermionOperator; one qubit per spin orbital."""
    x, z, w = _map_products(op, mapping)
    if not np.isfinite(w).all():
        raise ValueError("non-finite mapped coefficient")
    residue = float(np.abs(w.imag).max(initial=0.0))
    if residue > 1e-10:
        raise ValueError(
            f"mapped operator has imaginary residue {residue}; input not Hermitian"
        )
    return QubitHamiltonian._from_parts(op.n_spin_orbitals, [(x, z, w.real)], prune)


def occupation_decoder(mapping: str, n_qubits: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized inverse encoding: basis-index array -> occupation bitmask array.

    Under Jordan-Wigner the index bits are the occupations. Under Parity,
    qubit j holds the parity of occupations 0..j, so occupation j is the
    XOR of adjacent parity bits.
    """
    name = normalize_mapping(mapping)
    mask = np.uint64((1 << n_qubits) - 1)
    if name == "jordan_wigner":
        return lambda idx: np.asarray(idx, dtype=np.uint64) & mask

    def from_parity(idx: np.ndarray) -> np.ndarray:
        b = np.asarray(idx, dtype=np.uint64)
        return (b ^ (b << np.uint64(1))) & mask

    return from_parity


def hf_bitstring(n_electrons: int, n_spin_orbitals: int, mapping: str) -> str:
    """Reference-state label: lowest spin orbitals occupied, re-encoded.

    The result indexes a computational-basis state (qubit 0 leftmost in the
    label) that is an eigenstate of every single-qubit Z.
    """
    if not 0 <= n_electrons <= n_spin_orbitals:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n_spin_orbitals} spin orbitals"
        )
    occ = (1 << n_electrons) - 1
    name = normalize_mapping(mapping)
    if name == "jordan_wigner":
        bits = occ
    else:
        bits = 0
        parity = 0
        for j in range(n_spin_orbitals):
            parity ^= (occ >> j) & 1
            bits |= parity << j
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n_spin_orbitals))


@dataclass(frozen=True)
class ExcitationList:
    """Spin-conserving single and double excitations between spin orbitals."""

    singles: tuple[tuple[int, int], ...]
    doubles: tuple[tuple[int, int, int, int], ...]
    parameter_count: int

    def __post_init__(self) -> None:
        if self.parameter_count != len(self.singles) + len(self.doubles):
            raise ValueError("parameter_count does not match excitation lists")


def uccsd_excitations(n_active_electrons: int, n_active_orbitals: int) -> ExcitationList:
    """Enumerate excitations from occupied to virtual spin orbitals.

    Singles keep the spin of the excited electron. Doubles pair occupied
    spin orbitals a > b with virtual m > n such that the spin multiset is
    conserved, so net Sz never changes.
    """
    n_so = 2 * n_active_orbitals
    if not 0 <= n_active_electrons <= n_so:
        raise ValueError(
            f"{n_active_electrons} electrons do not fit in {n_so} spin orbitals"
        )
    occupied = range(n_active_electrons)
    virtual = range(n_active_electrons, n_so)
    singles = tuple(
        (a, m) for a in occupied for m in virtual if a % 2 == m % 2
    )
    doubles = []
    for a in occupied:
        for b in range(a):
            for m in virtual:
                for n in range(n_active_electrons, m):
                    if sorted((a % 2, b % 2)) == sorted((m % 2, n % 2)):
                        doubles.append((a, b, m, n))
    return ExcitationList(
        singles=singles,
        doubles=tuple(doubles),
        parameter_count=len(singles) + len(doubles),
    )


def uccsd_generator_paulis(
    exc: ExcitationList, n_spin_orbitals: int, mapping: str
) -> list[list[tuple[PauliString, float]]]:
    """Pauli decomposition of each anti-Hermitian excitation generator.

    For amplitude t the generator G = t_op - t_op^dagger maps to
    i * sum_k c_k P_k with real c_k; each amplitude's entry lists the
    (P_k, c_k) pairs. A single Trotter step realizes exp(t G) as the
    rotation sequence exp(-i theta_k P_k / 2) with theta_k = -2 t c_k.
    """
    pairs = [(((m, 1), (a, 0)), ((a, 1), (m, 0))) for a, m in exc.singles]
    pairs += [
        (((m, 1), (n, 1), (b, 0), (a, 0)), ((a, 1), (b, 1), (n, 0), (m, 0)))
        for a, b, m, n in exc.doubles
    ]
    results: list[list[tuple[PauliString, float]]] = []
    for ops, ops_dag in pairs:
        op = FermionOperator(n_spin_orbitals, {ops: 1.0, ops_dag: -1.0})
        x, z, w = _map_products(op, mapping)
        pauli = [PauliString(n_spin_orbitals, a, b) for a, b in zip(x.tolist(), z.tolist())]
        hermitian = np.flatnonzero(np.abs(w.real) > 1e-10)
        if hermitian.size:
            raise ValueError(f"generator term {pauli[hermitian[0]]!r} is not anti-Hermitian")
        results.append([(p, c) for p, c in zip(pauli, w.imag.tolist()) if abs(c) > 1e-12])
    return results
