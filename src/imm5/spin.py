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
way, from a vector to its mask and its position.  The element read
carries the mask it was unpacked from, outside its dataclass fields, so
the maps below do not encode c again; a ``SpinStructure`` built with c a
tuple stores its mask the same way on first use.

Both maps below are a few table lookups ("Four Russians": Arlazarov,
Dinic, Kronrod and Faradzev 1970), not loops over the link components.

* The characteristic test takes the mask that s carries, or reads a
  tuple c of small entries as the binary digits of their parities, at C
  speed.  It then forms q c mod 2, the XOR of the rows of q mod 2 at the
  set bits of c, one lookup per four rows in XOR tables of those rows
  (``IntSymMatrix._row_tables``, built on the first test), and compares
  it with the kept diagonal mask, on every call.  It yields the mask of
  c, and a difference of two spin structures is the XOR of their masks.
* The Wu map reads the Gamma2 coordinates of that difference, coordinate
  i at bit i, off XOR tables of the generator columns in the same way
  (``SurgeryPresentation._gamma2_tables``).  Gamma2 has 2**alpha
  elements, so the presentation keeps the ``WuCoset`` of each coordinate
  mask it has met (``SurgeryPresentation._wu_cosets``) and returns that
  one immutable object again; past _WU_COSET_CAP cosets a new one is
  built and not kept, so the memo does not grow with the number of
  calls.
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
# Wu cosets a presentation keeps: all of Gamma2 up to alpha = 10
_WU_COSET_CAP = 1024


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
    """Indicator vector of a characteristic sublink.

    An instance may carry the bitmask of c (bit j is c_j mod 2) as
    ``_mask`` in its instance dict, outside the dataclass fields, so
    equality, hashing and ``repr`` see c alone.  ``spin_structures``
    builds its elements carrying the mask they were decoded from; an
    instance built with c a tuple stores it on its first characteristic
    test.  A c of any other type is read afresh on every test.
    """

    c: tuple[int, ...]
    _mask = None  # no annotation: not a field


@dataclass(frozen=True)
class WuCoset:
    """The class of a spin-structure difference in Gamma2 coordinates.
    ``wu_coset_of_difference`` returns one shared instance per class of a
    presentation, up to the cap the module docstring names."""

    value: Gamma2Element


def _parity_mask(c) -> int:
    """The vector c as a bitmask, bit j is c_j mod 2.

    A tuple of entries 0..255 becomes the mask at C speed, as binary
    digits with c_{n-1} leading (``bytes`` of another type may copy a raw
    buffer).  Any other vector takes the loop, which raises the TypeError
    of ``entry & 1`` for an entry that is not an integer.
    """
    if type(c) is tuple:
        try:
            return int(bytes(c).translate(_PARITY_DIGITS)[::-1] or b"0", 2)
        except (TypeError, ValueError):
            pass
    x = 0
    for j, bit in enumerate(c):
        if bit & 1:
            x |= 1 << j
    return x


def _characteristic_mask(p: SurgeryPresentation, s: SpinStructure) -> int | None:
    """s.c as a bitmask (bit j is c_j mod 2) if s is characteristic for p,
    else None: q c = diag(q) mod 2, where q c mod 2 is the XOR of the rows
    of q mod 2 at the set bits of c, looked up in
    ``IntSymMatrix._row_tables``.

    The mask is the one s carries, or is stored on s when c is a tuple
    (``SpinStructure``); the test itself runs on every call, so a spin
    structure of one presentation is checked afresh against another.
    """
    c, q = s.c, p.q
    if len(c) != len(q.entries):
        return None
    if type(s) is not SpinStructure or type(c) is not tuple:
        x = _parity_mask(c)
    else:
        x = s._mask
        if x is None:
            x = s.__dict__["_mask"] = _parity_mask(c)
    return x if _xor_lookup(q._row_tables, x, _CHUNK) == q._over_z2[1] else None


class _SpinSpace(Sequence):
    """The solutions of q c = diag(q) mod 2 in ``masks`` order, unpacked on
    read.  Membership, ``count`` and ``index`` solve the characteristic
    equation instead of scanning the elements."""

    def __init__(self, p: SurgeryPresentation):
        self._p, self._sol, self._n = p, p.q._over_z2[2], p.n

    def _unpack(self, x: int) -> SpinStructure:
        """The element whose mask is x, carrying it."""
        s = SpinStructure(_bits(x, self._n))
        s.__dict__["_mask"] = x
        return s

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
        return self._unpack(x ^ _xor_lookup(tables, k % count, _TAIL))

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
    coset.  The map is onto Gamma2 with fibres of size 2**betti1.  A
    class met before comes back as the same ``WuCoset`` (``p._wu_cosets``).
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
    coords = _xor_lookup(tables, delta, _CHUNK)
    memo = p._wu_cosets
    coset = memo.get(coords)
    if coset is None:
        coset = WuCoset(Gamma2Element(_bits(coords, alpha)))
        if len(memo) < _WU_COSET_CAP:
            memo[coords] = coset
    return coset
