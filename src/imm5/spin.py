"""Spin structures as characteristic sublinks, and their Wu cosets.

A spin structure on the presented manifold is a Z2 vector c over the
link components with q c = diag(q) mod 2.  The solution set realises
H^1(M; Z2) as a torsor; the quotient map onto
H^1(M; Z2) / rho(H^1(M; Z)) = Gamma2(M) is computed on differences of
two spin structures by evaluating them on the Gamma2 generators that the
presentation computes once and keeps.

Spin vectors are int bitmasks (bit j is c_j mod 2) everywhere inside:
``spin_structures`` is a sequence over the solution that q keeps from
its one Z2 reduction, and unpacks a mask to a ``SpinStructure`` tuple
only when that element is read; membership and ``index`` go the other
way, from a vector to its mask and its position.

Both maps below are a few table lookups ("Four Russians": Arlazarov,
Dinic, Kronrod and Faradzev 1970), not loops over the link components.

* The characteristic test reads a tuple c of small entries as the binary
  digits of their parities, at C speed, to get the mask of c.  It then
  forms q c mod 2, the XOR of the rows of q mod 2 at the set bits of c,
  one lookup per four rows in XOR tables of those rows
  (``IntSymMatrix._row_tables``, built on the first test), and compares
  it with the kept diagonal mask.  It yields the mask of c, and a
  difference of two spin structures is the XOR of their masks.
* The Wu map reads the Gamma2 coordinates of that difference, coordinate
  i at bit i, off XOR tables of the generator columns in the same way
  (``SurgeryPresentation._gamma2_tables``) and unpacks them a byte at a
  time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import index

from .errors import _QUOTE, InvalidSpinStructure
from .intlinalg import _CHUNK, _TAIL, _xor_lookup
from .surgery import Gamma2Element, SurgeryPresentation

# _BYTE_BITS[b] is the byte b as 8 bits, least significant first
_BYTE_BITS = tuple(tuple((b >> j) & 1 for j in range(8)) for b in range(256))
# _PARITY_DIGITS maps the byte b to the ASCII digit of b mod 2
_PARITY_DIGITS = bytes(b"01"[b & 1] for b in range(256))


def _bits(x: int, n: int) -> tuple[int, ...]:
    """The bitmask x < 2**n as a 0/1 vector of n entries: one or two bytes
    without a loop, longer masks byte by byte."""
    if n <= 8:
        return _BYTE_BITS[x][:n]
    if n <= 16:
        # no 16-entry temporary: slicing one after the concatenation kept
        # about 0.1 MB more of CPython's freed tuples alive at peak
        return _BYTE_BITS[x & 255] + _BYTE_BITS[x >> 8][:n - 8]
    bits: tuple[int, ...] = ()
    for byte in x.to_bytes(-(-n // 8), "little"):
        bits += _BYTE_BITS[byte]
    return bits[:n]


@dataclass(frozen=True)
class SpinStructure:
    """Indicator vector of a characteristic sublink."""

    c: tuple[int, ...]


@dataclass(frozen=True)
class WuCoset:
    """The class of a spin-structure difference in Gamma2 coordinates."""

    value: Gamma2Element


def _characteristic_mask(p: SurgeryPresentation, s: SpinStructure) -> int | None:
    """s.c as a bitmask (bit j is c_j mod 2) if s is characteristic for p,
    else None: q c = diag(q) mod 2, where q c mod 2 is the XOR of the rows
    of q mod 2 at the set bits of c, looked up in
    ``IntSymMatrix._row_tables``.

    A tuple of entries 0..255 becomes the mask at C speed, as binary
    digits with c_{n-1} leading (``bytes`` of another type may copy a raw
    buffer).  Any other vector takes the loop, which raises the TypeError
    of ``entry & 1`` for an entry that is not an integer.
    """
    c, q = s.c, p.q
    if len(c) != len(q.entries):
        return None
    x = None
    if type(c) is tuple:
        try:
            x = int(bytes(c).translate(_PARITY_DIGITS)[::-1] or b"0", 2)
        except (TypeError, ValueError):
            pass
    if x is None:
        x = 0
        for j, bit in enumerate(c):
            if bit & 1:
                x |= 1 << j
    return x if _xor_lookup(q._row_tables, x, _CHUNK) == q._over_z2[1] else None


class _SpinSpace(Sequence):
    """The solutions of q c = diag(q) mod 2 in ``masks`` order, unpacked on
    read.  Membership, ``count`` and ``index`` solve the characteristic
    equation instead of scanning the elements."""

    def __init__(self, p: SurgeryPresentation):
        self._p, self._sol, self._n = p, p.q._over_z2[2], p.n

    def _unpack(self, x: int) -> SpinStructure:
        return SpinStructure(_bits(x, self._n))

    def __len__(self) -> int:
        return self._sol.count

    def __iter__(self):
        return map(self._unpack, self._sol.masks())

    def __getitem__(self, k):
        count = self._sol.count
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(count))]
        k = index(k)
        if not -count <= k < count:
            raise IndexError("spin structure index out of range")
        # Mod2Solution.mask(k % count), one call fewer
        x, tables = self._sol._tables
        return SpinStructure(_bits(x ^ _xor_lookup(tables, k % count, _TAIL), self._n))

    def _member_mask(self, s) -> int | None:
        """The mask of s if s equals an element, else None.  Equality is
        the one a list of the elements applies: a ``SpinStructure`` whose c
        is a tuple of n entries, each equal to 0 or 1."""
        if (type(s) is not SpinStructure or not isinstance(s.c, tuple)
                or not all(x == 0 or x == 1 for x in s.c)):
            return None
        return _characteristic_mask(self._p, SpinStructure(tuple(x == 1 for x in s.c)))

    def __contains__(self, s) -> bool:
        return self._member_mask(s) is not None

    def count(self, s) -> int:
        return int(s in self)

    def index(self, s, start=0, stop=None) -> int:
        window = range(*slice(start, stop).indices(self._sol.count))
        x = self._member_mask(s)
        if x is not None:
            k = self._sol.index(x)
            if k in window:
                return k
        raise ValueError(f"{_QUOTE.repr(s)} is not in the sequence")


def spin_structures(p: SurgeryPresentation) -> Sequence[SpinStructure]:
    """All solutions of q c = diag(q) mod 2 as a lazy read-only sequence
    that decodes an element when it is read; ``list(...)`` makes them all.

    The system is always solvable (the diagonal of a symmetric Z2
    matrix lies in its column space), and the solution count is
    2**(betti1 + alpha).  Python caps ``len()`` at ``sys.maxsize``.
    """
    return _SpinSpace(p)


def wu_coset_of_difference(
    p: SurgeryPresentation, s1: SpinStructure, s2: SpinStructure
) -> WuCoset:
    """Map the difference s1 - s2 in H^1(M; Z2) to its Wu coset.

    The difference delta descends to the functional x -> delta.x on
    H1 = coker(q).  Its values on the kept Gamma2 generators g_i mod 2
    (``SurgeryPresentation.gamma2_generators``; the ``surgery`` module
    docstring says how they are found) are the Gamma2 coordinates of the
    coset.  The map is onto Gamma2 with fibres of size 2**betti1.
    """
    delta = 0
    for s in (s1, s2):
        x = _characteristic_mask(p, s)
        if x is None:
            raise InvalidSpinStructure(
                f"vector {_QUOTE.repr(s.c)} fails the characteristic equation "
                f"for {_QUOTE.repr(p.name)}"
            )
        delta ^= x
    alpha, tables = p._gamma2_tables
    return WuCoset(Gamma2Element(_bits(_xor_lookup(tables, delta, _CHUNK), alpha)))
