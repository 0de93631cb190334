"""Exact algebra for n-qubit Pauli strings and real Pauli-sum Hamiltonians.

Conventions used throughout the package:

- A Pauli string is stored as a pair of bitmasks. Bit i of ``x_mask`` is set
  iff qubit i carries X or Y; bit i of ``z_mask`` is set iff qubit i carries
  Z or Y. Per qubit: (x, z) = (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.
- Qubit 0 is the least significant bit of computational-basis labels. In
  text labels ("XZY...") qubit 0 is the leftmost character.
- The canonical form of a string is P(x, z) = i^{|x & z|} X^x Z^z, so the
  product of two strings is another string times an exact fourth root of
  unity. Phases are enumerated, never stored as approximate floats.
- Hamiltonians carry real coefficients only (in Hartree). Conjugating a
  real Pauli sum by exp(-i tau P / 2) keeps coefficients real, which the
  dressing routine exploits.
- A Hamiltonian is stored as three arrays, x and z masks (uint64) and
  coefficients (float64), in canonical (x, z) order. They are merged and
  sorted on the combined key x << n | z, which caps sums at 32 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "PauliString",
    "QubitHamiltonian",
    "dress",
    "dress_sequence",
    "DEFAULT_PRUNE",
    "HAMILTONIAN_MAX_QUBITS",
]

# Dressed terms with |coefficient| below this are dropped so floating-point
# dust does not inflate the term count.
DEFAULT_PRUNE = 1e-12

# The combined sort key x << n | z of an n-qubit term must fit in 64 bits.
HAMILTONIAN_MAX_QUBITS = 32


def _json_float(value: object) -> float:
    """A JSON number as a float; a bool or a string is refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_int(value: object) -> int:
    """An integral JSON number (2 or 2.0) as an int; 2.7, a bool or a string is refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


_LETTER_OF = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS_OF = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True, slots=True)
class PauliString:
    """Tensor product of single-qubit Paulis in symplectic bitmask form."""

    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError(
                f"mask bits set beyond qubit {self.n_qubits - 1}: "
                f"x={self.x_mask:#x} z={self.z_mask:#x}"
            )

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a text label, qubit 0 leftmost (e.g. "XZY")."""
        if not isinstance(label, str):
            raise ValueError(f"Pauli label must be a string, got {label!r}")
        if not label:
            raise ValueError("empty Pauli label")
        x = z = 0
        for i, ch in enumerate(label):
            try:
                xb, zb = _MASKS_OF[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(label), x, z)

    def to_label(self) -> str:
        return "".join(self.letter(i) for i in range(self.n_qubits))

    def letter(self, qubit: int) -> str:
        return _LETTER_OF[(self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1]

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def is_diagonal(self) -> bool:
        """True iff the string contains only I and Z letters."""
        return self.x_mask == 0

    @property
    def support(self) -> int:
        """Mask of qubits where the string acts nontrivially."""
        return self.x_mask | self.z_mask

    @property
    def weight(self) -> int:
        return self.support.bit_count()

    def key(self) -> tuple[int, int]:
        """Canonical sort key shared by all modules."""
        return (self.x_mask, self.z_mask)

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"


def _product(px, pz, qx, qz):
    """(x, z, k) with p q = i^k P(x, z), k in 0..3, for mask arrays.

    k = |px&pz| + |qx&qz| + 2|pz&qx| - |x&z| mod 4, with -|x&z| entered as
    +3|x&z| so the uint8 sum stays in 0..255 up to 32 qubits. The scalar
    `multiply` in tests/reference.py is the reference it must match.
    """
    x, z = px ^ qx, pz ^ qz
    k = np.bitwise_count(px & pz) + np.bitwise_count(qx & qz)
    k = k + 2 * np.bitwise_count(pz & qx) + 3 * np.bitwise_count(x & z)
    return x, z, k & 3


class QubitHamiltonian:
    """Weighted sum of Pauli strings with real coefficients (Hartree).

    Terms are stored as the arrays `x`, `z` (uint64 masks) and `coeff`
    (float64) in canonical (x_mask, z_mask) order, so iteration, grouping,
    and gradient tie-breaking are deterministic. Like terms are summed and
    |c| < DEFAULT_PRUNE dropped. Instances and their arrays are treated as
    immutable; all operations return new objects.
    """

    __slots__ = ("n_qubits", "x", "z", "coeff")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString, float]],
    ) -> None:
        if not 1 <= n_qubits <= HAMILTONIAN_MAX_QUBITS:
            raise ValueError(
                f"n_qubits must be in 1..{HAMILTONIAN_MAX_QUBITS}, got {n_qubits}"
            )
        pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
        if any(p.n_qubits != n_qubits for p, _ in pairs):
            raise ValueError(f"every term must act on {n_qubits} qubits")
        coeff = np.array([float(c) for _, c in pairs], dtype=np.float64)
        if not np.isfinite(coeff).all():
            raise ValueError("non-finite coefficient")
        masks = np.array([p.key() for p, _ in pairs], dtype=np.uint64).reshape(-1, 2)
        self._assign(n_qubits, masks[:, 0], masks[:, 1], coeff, DEFAULT_PRUNE)
        if not np.isfinite(self.coeff).all():  # like terms summed past float64
            raise ValueError("non-finite coefficient")

    def _assign(self, n_qubits, x, z, coeff, prune) -> None:
        """Sum like terms (in input order, from 0.0), sort, drop |c| < prune."""
        shift = np.uint64(n_qubits)
        key, slot = np.unique((x << shift) | z, return_inverse=True)
        coeff = np.bincount(slot, coeff)
        keep = np.abs(coeff) >= prune
        self.n_qubits, self.x, self.coeff = n_qubits, key[keep] >> shift, coeff[keep]
        self.z = key[keep] ^ (self.x << shift)

    @classmethod
    def _from_parts(cls, n_qubits, parts, prune=DEFAULT_PRUNE) -> "QubitHamiltonian":
        """Sum of (x, z, coeff) term arrays, which may repeat a string."""
        h = cls.__new__(cls)
        h._assign(n_qubits, *(np.concatenate(a) for a in zip(*parts)), prune)
        return h

    @classmethod
    def from_labels(cls, coeffs: Mapping[str, float]) -> "QubitHamiltonian":
        """Build from {label: coefficient}; all labels must share one length."""
        if not coeffs:
            raise ValueError("empty Hamiltonian")
        pairs = [(PauliString.from_label(s), c) for s, c in coeffs.items()]
        return cls(pairs[0][0].n_qubits, pairs)

    def items(self) -> Iterator[tuple[PauliString, float]]:
        for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeff.tolist()):
            yield PauliString(self.n_qubits, x, z), c

    def __len__(self) -> int:
        return self.coeff.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QubitHamiltonian):
            return NotImplemented
        ours, theirs = (self.x, self.z, self.coeff), (other.x, other.z, other.coeff)
        return self.n_qubits == other.n_qubits and all(map(np.array_equal, ours, theirs))

    def __repr__(self) -> str:
        return f"QubitHamiltonian(n_qubits={self.n_qubits}, terms={len(self)})"

    def coefficient(self, p: PauliString) -> float:
        hit = (self.x == p.x_mask) & (self.z == p.z_mask)
        return float(self.coeff[hit].sum()) if p.n_qubits == self.n_qubits else 0.0

    @property
    def identity_coefficient(self) -> float:
        return self.coefficient(PauliString.identity(self.n_qubits))

    def allclose(self, other: "QubitHamiltonian", tol: float = 1e-10) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        parts = [(self.x, self.z, self.coeff), (other.x, other.z, -other.coeff)]
        diff = QubitHamiltonian._from_parts(self.n_qubits, parts, prune=0.0)
        return bool(np.all(np.abs(diff.coeff) <= tol))

    def to_json_dict(self) -> dict:
        """Lossless JSON form: {"n_qubits": m, "terms": [{"pauli": ..., "coeff": ...}]}."""
        return {
            "n_qubits": self.n_qubits,
            "terms": [{"pauli": p.to_label(), "coeff": c} for p, c in self.items()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QubitHamiltonian":
        terms = [(PauliString.from_label(t["pauli"]), _json_float(t["coeff"]))
                 for t in data["terms"]]
        return cls(_json_int(data["n_qubits"]), terms)


def dress(
    h: QubitHamiltonian,
    p: PauliString,
    tau: float,
    prune: float = DEFAULT_PRUNE,
) -> QubitHamiltonian:
    """Similarity transform exp(+i tau p/2) H exp(-i tau p/2).

    Terms commuting with p (even symplectic form) pass through; an
    anticommuting term C*Q becomes C*cos(tau)*Q + C*sin(tau)*(i p Q).
    Because p and Q anticommute, i*p*Q is again a Pauli string with a real
    sign, so the result stays Hermitian with real coefficients. Like terms
    are merged and dust below `prune` is dropped.
    """
    if p.n_qubits != h.n_qubits:
        raise ValueError(f"qubit-count mismatch: {p.n_qubits} vs {h.n_qubits}")
    if not math.isfinite(tau):
        raise ValueError(f"non-finite rotation angle {tau!r}")
    px, pz = np.uint64(p.x_mask), np.uint64(p.z_mask)
    anti = (np.bitwise_count((h.x & pz) ^ (h.z & px)) & 1).astype(bool)
    qx, qz, k = _product(px, pz, h.x[anti], h.z[anti])
    # the phase i^k is +/-i, and i * i^k is -1 iff k = 1
    prod = h.coeff[anti] * math.sin(tau) * np.where(k == 1, -1.0, 1.0)
    kept = np.where(anti, h.coeff * math.cos(tau), h.coeff)
    parts = [(h.x, h.z, kept), (qx, qz, prod)]
    return QubitHamiltonian._from_parts(h.n_qubits, parts, prune)


def dress_sequence(
    h: QubitHamiltonian,
    generators: Iterable[tuple[PauliString, float]],
    prune: float = DEFAULT_PRUNE,
) -> QubitHamiltonian:
    """Fold `dress` over (generator, angle) pairs in list order.

    The result equals conjugation by the ordered operator product
    U = U_1 U_2 ... U_n with U_j = exp(-i tau_j P_j / 2), i.e. dressing by
    the first listed generator happens first. Equivalently, the circuit
    picture applies the rotations to the reference in *reversed* list
    order (last listed generator nearest the reference state).
    """
    for p, tau in generators:
        h = dress(h, p, tau, prune=prune)
    return h
