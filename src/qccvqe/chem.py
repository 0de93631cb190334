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
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .pauli import HAMILTONIAN_MAX_QUBITS, PauliString, QubitHamiltonian, _product
from .simulator import _PHASES, bitstring_label

__all__ = [
    "FcidumpError",
    "ElectronIntegrals",
    "ActiveSpaceProblem",
    "FermionOperator",
    "ExcitationList",
    "parse_fcidump",
    "cas_reduce",
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
# The dense (pq|rs) array holds NORB^4 float64s: 2 GiB at this NORB.
_MAX_NORB = 128


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
        # one leading-index slice at a time, so no temporary is the size of g2
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            swapped = self.g2.transpose(perm)
            if any(np.max(np.abs(self.g2[p] - swapped[p])) > _SYMTOL for p in range(n)):
                raise ValueError(f"g2 violates permutational symmetry {perm}")


_NAMELIST_KEY = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=,]*?)(?:,|$)")


def _parse_header(lines: Iterator[tuple[int, str]]) -> dict[str, str]:
    """Read the &FCI namelist from `lines`, leaving them at the first data line."""
    lineno, first = next(lines, (None, ""))
    if lineno is None:
        raise FcidumpError("empty file")
    if not first.lstrip().upper().startswith("&FCI"):
        raise FcidumpError("expected '&FCI' namelist header", lineno)
    header_text = first.lstrip()[4:]
    while not header_text.strip().endswith(("&END", "/")):
        lineno, line = next(lines, (None, ""))
        if lineno is None:
            raise FcidumpError("namelist header never terminated by '&END' or '/'")
        header_text += " " + line
    stripped = header_text.strip()
    header_text = stripped[: -len("&END")] if stripped.endswith("&END") else stripped[:-1]
    return {
        key.upper(): value.strip()
        for key, value in _NAMELIST_KEY.findall(header_text)
    }


def parse_fcidump(source: str | TextIO) -> ElectronIntegrals:
    """Parse FCIDUMP text (path contents or open stream) into integrals.

    Data lines read `value i j k l` with 1-based orbital indices:
    all-zero indices give the nuclear repulsion, k = l = 0 gives h1 entries
    (stored symmetrically), a single nonzero index is an orbital-energy
    line and is skipped, and four nonzero indices give (ij|kl) expanded to
    all eight chemist-notation permutations. A line may repeat an integral
    only with the same value. The header's MS2 (2 S_z, NELEC mod 2 if absent)
    must have NELEC's parity and be at most NELEC in magnitude.
    """
    text = source if isinstance(source, str) else source.read()
    lines = (
        (i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()
    )
    fields = _parse_header(lines)
    for key in ("NORB", "NELEC"):
        if key not in fields:
            raise FcidumpError(f"namelist is missing {key}")
    try:
        n_orb = int(fields["NORB"])
        n_elec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", n_elec % 2))  # the lowest spin if not stated
    except ValueError as exc:
        raise FcidumpError(f"non-integer namelist value: {exc}") from None
    if not 1 <= n_orb <= _MAX_NORB:
        raise FcidumpError(f"NORB must be in 1..{_MAX_NORB}, got {n_orb}")
    if not 0 <= n_elec <= 2 * n_orb:
        raise FcidumpError(f"NELEC={n_elec} impossible for NORB={n_orb}")
    if abs(ms2) > n_elec or (n_elec - ms2) % 2:
        raise FcidumpError(f"MS2={ms2} impossible for NELEC={n_elec}")

    h1 = np.zeros((n_orb, n_orb))
    g2 = np.zeros((n_orb, n_orb, n_orb, n_orb))
    e_nuclear = 0.0
    # each integral's first line, under one key for all its index orders
    first_line: dict[tuple[int, ...], int] = {}
    for lineno, line in lines:
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
        # `first` is the integral's value before this line: the value of the
        # line that named it first, if any did
        if i == j == k == l == 0:
            key, first, e_nuclear = (), e_nuclear, value
        elif i and k == l == 0:
            if j == 0:
                continue  # orbital-energy line, not used
            key, first = (min(i, j), max(i, j)), h1[i - 1, j - 1]
            h1[i - 1, j - 1] = h1[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"partial zero indices {parts[1:]!r}", lineno)
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            images = ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                      (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p))
            key, first = min(images), g2[p, q, r, s]
            for index in images:
                g2[index] = value
        seen_at = first_line.setdefault(key, lineno)
        if seen_at != lineno and value != first:
            raise FcidumpError(
                f"value {value!r} conflicts with {float(first)!r} on line {seen_at} "
                "for the same integral", lineno
            )
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


def _check_active(
    window: Sequence[int] | None, n_active_orbitals: int | None, n_active_electrons: int | None
) -> None:
    """The CAS checks that need no integrals; cas_reduce runs them, and so
    does the CLI's manifest loader before any geometry."""
    if n_active_electrons is not None and n_active_electrons < 0:
        raise ValueError(f"active_electrons must be >= 0, got {n_active_electrons}")
    if n_active_orbitals is not None and n_active_orbitals < 1:
        raise ValueError(f"active_orbitals must be >= 1, got {n_active_orbitals}")
    if window is not None:
        if not window or len(set(window)) != len(window) or min(window) < 0:
            raise ValueError(f"active window {sorted(window)} is empty, repeats an orbital "
                             "or holds a negative one")
        if n_active_orbitals not in (None, len(window)):
            raise ValueError(f"active window {sorted(window)} holds {len(window)} "
                             f"orbitals, not {n_active_orbitals}")
        n_active_orbitals = len(window)
    if 2 * (n_active_orbitals or 0) > HAMILTONIAN_MAX_QUBITS:
        raise ValueError(
            f"{n_active_orbitals} active orbitals exceed the limit of "
            f"{HAMILTONIAN_MAX_QUBITS // 2} ({HAMILTONIAN_MAX_QUBITS} qubits)"
        )


def cas_reduce(
    ints: ElectronIntegrals,
    window: Sequence[int] | range | None = None,
    n_active_electrons: int | None = None,
    *,
    n_active_orbitals: int | None = None,
) -> ActiveSpaceProblem:
    """Fold doubly occupied orbitals below the window into scalar + Fock terms.

    All electrons are active by default. Without a window, the active
    orbitals are the `n_active_orbitals` (default: all the rest) orbitals
    after the doubly occupied lowest ones; a window of another length is
    refused.
    The inactive orbitals are the lowest (n_electrons - n_active) / 2
    orbitals outside the window; each contributes its closed-shell Coulomb
    and exchange fields to the active one-body matrix and a constant to the
    inactive energy. Orbitals above the window are dropped.
    """
    if n_active_electrons is None:
        n_active_electrons = ints.n_electrons
    n_inactive_elec = ints.n_electrons - n_active_electrons
    if n_inactive_elec < 0 or n_inactive_elec % 2:
        raise ValueError(
            f"{n_active_electrons} active electrons of {ints.n_electrons} leave "
            f"{n_inactive_elec} to freeze (negative or odd)"
        )
    n_inactive = n_inactive_elec // 2
    if window is None:
        n = ints.n_orbitals - n_inactive if n_active_orbitals is None else n_active_orbitals
        window = range(n_inactive, n_inactive + n)
    active = sorted(int(u) for u in window)
    _check_active(active, n_active_orbitals, n_active_electrons)
    if active[-1] >= ints.n_orbitals:
        raise ValueError(
            f"active window {active} exceeds orbital range 0..{ints.n_orbitals - 1}"
        )
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
    # index grids in C order list the terms as nested loops over
    # (u, v, spin) and (u, v, x, y, s, t) would; no product repeats
    u, v, spin = (a.ravel() for a in np.indices((o, o, 2)))
    c = prob.f_inactive[u, v]
    keep = ~(np.abs(c) < 1e-14)  # keeps a NaN, which FermionOperator refuses
    p, q = (2 * u + spin)[keep].tolist(), (2 * v + spin)[keep].tolist()
    terms: dict[LadderProduct, float] = {
        ((a, 1), (b, 0)): coeff for a, b, coeff in zip(p, q, c[keep].tolist())
    }
    u, v, x, y, s, t = (a.ravel() for a in np.indices((o, o, o, o, 2, 2)))
    c = 0.5 * prob.g_active[u, v, x, y]
    p1, p2, q2, q1 = 2 * u + s, 2 * x + t, 2 * y + t, 2 * v + s
    keep = (p1 != p2) & (q2 != q1) & ~(np.abs(c) < 1e-14)
    ops = zip(*(a[keep].tolist() for a in (p1, p2, q2, q1)))
    terms.update(
        (((i, 1), (j, 1), (k, 0), (l, 0)), coeff)
        for (i, j, k, l), coeff in zip(ops, c[keep].tolist())
    )
    return FermionOperator(n_spin_orbitals=2 * o, terms=terms)


def _prefix_parity(bits, n: int):
    """Bit j becomes the XOR of bits 0..j, for every j < n: shifts 1, 2, 4, ...
    while below n, on a Python int or a uint64 array."""
    shift = 1
    while shift < n:
        bits = bits ^ (bits << shift)
        shift *= 2
    return bits


class _Encoding(NamedTuple):
    """One fermion-to-qubit encoding in the form of Seeley, Richard and Love
    (J. Chem. Phys. 137, 224109 (2012)) with qubit sets U(j), P(j), R(j):
    a+_j = 1/2 X_{U(j)} (X_j Z_{P(j)} - i Y_j Z_{R(j)}).

    `masks(j, n)` gives mode j's shared x mask {j} | U(j), the X factor's z
    mask P(j) and the Y factor's z mask {j} | R(j). `encode(occupations, n)`
    gives the basis index and `decode(index, n)` inverts it; both leave bits
    at n and above for the caller to drop.
    """

    masks: Callable[[int, int], tuple[int, int, int]]
    encode: Callable
    decode: Callable


_ENCODINGS = {
    # U(j) = {}, P(j) = R(j) = the modes below j; qubit j is occupation j
    "jordan_wigner": _Encoding(lambda j, n: (1 << j, (1 << j) - 1, (2 << j) - 1),
                               lambda occupations, n: occupations, lambda index, n: index),
    # qubit j holds the parity of modes 0..j: U(j) = the modes above j,
    # P(j) = {j - 1}, R(j) = {}; occupation j is the XOR of qubits j - 1, j
    "parity": _Encoding(lambda j, n: (((1 << n) - 1) >> j << j, (1 << j) >> 1, 1 << j),
                        _prefix_parity, lambda index, n: index ^ (index << 1)),
}

MAPPINGS = tuple(_ENCODINGS)

_ALIASES = {"jw": "jordan_wigner", "jordan-wigner": "jordan_wigner"}


def normalize_mapping(name: str) -> str:
    """Canonical name of a mapping, given in any case, alias or padding; any
    other name, or a non-string, raises ValueError."""
    key = name.strip().lower() if isinstance(name, str) else None
    key = _ALIASES.get(key, key)
    if key not in _ENCODINGS:
        raise ValueError(
            f"unknown mapping {name!r}; choose from {sorted([*_ALIASES, *_ENCODINGS])}"
        )
    return key


def _map_products(
    op: FermionOperator, mapping: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand every ladder product into Pauli strings with complex weights.

    Returns canonical (x, z, w) arrays: distinct masks in (x, z) order and
    their summed weights. From a table of ladder images indexed by (mode,
    action, factor), read off the encoding's masks, all products expand
    together, one ladder position at a time: masks and phase exponent from
    `pauli._product`, weights c1 * c2 * phase, exact (+/-2^-k or +/-2^-k
    i). The zero-weight copies that padding adds change no sum. Like strings
    are summed in (term, factor combination) order, as the scalar loop
    `map_products` in tests/reference.py sums them, so the result is
    bit-identical to it.
    """
    encoding = _ENCODINGS[normalize_mapping(mapping)]
    n = op.n_spin_orbitals
    if not 1 <= n <= HAMILTONIAN_MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{HAMILTONIAN_MAX_QUBITS}, got {n}")
    # Row 2 * mode + action holds that ladder operator's X and Y factors; the
    # last row, identity with weights 1 and 0, pads shorter products.
    masks = [encoding.masks(j, n) for j in range(n) for _ in (0, 1)] + [(0, 0, 0)]
    x, zx, zy = np.array(masks, np.uint64).T
    lx, lz = np.stack([x, x], 1), np.stack([zx, zy], 1)
    lw = np.array([(0.5, 0.5j), (0.5, -0.5j)] * n + [(1, 0)], np.complex128)
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


def map_operator(op: FermionOperator, mapping: str) -> QubitHamiltonian:
    """Qubit image of a Hermitian FermionOperator; one qubit per spin orbital."""
    x, z, w = _map_products(op, mapping)
    if not np.isfinite(w).all():
        raise ValueError("non-finite mapped coefficient")
    residue = float(np.abs(w.imag).max(initial=0.0))
    if residue > 1e-10:
        raise ValueError(
            f"mapped operator has imaginary residue {residue}; input not Hermitian"
        )
    return QubitHamiltonian._from_parts(op.n_spin_orbitals, [(x, z, w.real)])


def occupation_decoder(mapping: str, n_qubits: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized inverse encoding: basis-index array -> occupation bitmask array."""
    decode = _ENCODINGS[normalize_mapping(mapping)].decode
    mask = np.uint64((1 << n_qubits) - 1)
    return lambda idx: decode(np.asarray(idx, dtype=np.uint64), n_qubits) & mask


def hf_bitstring(n_electrons: int, n_spin_orbitals: int, mapping: str) -> str:
    """Reference-state label: lowest spin orbitals occupied, re-encoded.

    The result indexes a computational-basis state (qubit 0 leftmost in the
    label) that is an eigenstate of every single-qubit Z.
    """
    if not 0 <= n_electrons <= n_spin_orbitals:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n_spin_orbitals} spin orbitals"
        )
    encode = _ENCODINGS[normalize_mapping(mapping)].encode
    return bitstring_label(encode((1 << n_electrons) - 1, n_spin_orbitals), n_spin_orbitals)


@dataclass(frozen=True)
class ExcitationList:
    """Spin-conserving single and double excitations between spin orbitals."""

    singles: tuple[tuple[int, int], ...]
    doubles: tuple[tuple[int, int, int, int], ...]

    @property
    def parameter_count(self) -> int:
        return len(self.singles) + len(self.doubles)


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
    return ExcitationList(singles=singles, doubles=tuple(doubles))


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
