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

The maps below are a few table lookups ("Four Russians": Arlazarov,
Dinic, Kronrod and Faradzev 1970), not loops over the link components.
The paths run once per element are straight-line code that pays for
those lookups and for the objects it returns; every check runs on every
call.

* ``spins[k]`` with k an ``int`` in range walks the solution tables once
  and writes c and the mask straight into the instance dict of the new
  ``SpinStructure``, the state its frozen ``__init__`` and a stored mask
  would leave.  Any other k (a bool, a negative or ``__index__`` index)
  is normalised first, a slice reads its elements, and an index out of
  range raises IndexError.
* The Wu map takes s1 and then s2.  Each argument's mask is the one a
  spin structure of the right length carries, or is read off c by
  ``_argument_mask``: at C speed for a tuple of small entries, stored on
  a ``SpinStructure`` whose c is a tuple, and an InvalidSpinStructure for
  a c of the wrong length.  One walk of the mask over the presentation's
  one set of XOR tables (``SurgeryPresentation._wu_tables``, a lookup per
  four link components) gives y: the Gamma2 coordinates of the mask, with
  q c mod 2 above them.  The argument is characteristic when that upper
  part is the kept diagonal mask, checked on every call.  Once both pass,
  the upper parts cancel, and y1 XOR y2 is the coordinate mask of the
  difference, coordinate i at bit i.  Gamma2 has 2**alpha elements, so
  the presentation keeps the ``WuCoset`` of each coordinate mask it has
  met (``SurgeryPresentation._wu_cosets``) and returns that one immutable
  object again; past _WU_COSET_CAP cosets a new one is built and not
  kept, so the memo does not grow with the number of calls.
* Membership, ``count`` and ``index`` read the entries of c equal to 1,
  and count the rest as equal to 0, at C speed.  The mask x is an
  element when the solution read back at its position,
  ``mask(index(x))``, is x itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import eq, index

from .errors import _QUOTE, InvalidSpinStructure
from .intlinalg import _CHUNK, _TAIL
from .surgery import Gamma2Element, SurgeryPresentation

# _BYTE_BITS[b] is the byte b as 8 bits, least significant first
_BYTE_BITS = tuple(tuple((b >> j) & 1 for j in range(8)) for b in range(256))
# _PARITY_DIGITS maps the byte b to the ASCII digit of b mod 2
_PARITY_DIGITS = bytes(b"01"[b & 1] for b in range(256))
# Wu cosets a presentation keeps: all of Gamma2 up to alpha = 10
_WU_COSET_CAP = 1024
# the low bits of a mask that index one XOR table, _TAIL or _CHUNK wide
_TAIL_LOW = (1 << _TAIL) - 1
_CHUNK_LOW = (1 << _CHUNK) - 1
_new = object.__new__


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
    builds its elements with c and the mask they were decoded from
    written straight into that dict; an instance built with c a tuple
    stores its mask on the first Wu call it is handed to.  A c of any
    other type is read afresh on every call.  A carried mask saves reading
    c again, never the test: every Wu call checks both of its arguments
    against the presentation it is given.
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


def _argument_mask(p: SurgeryPresentation, s: SpinStructure) -> int:
    """The mask of a Wu-map argument that carries no mask of the right
    length: c read by ``_parity_mask`` and, when s is a ``SpinStructure``
    whose c is a tuple, stored on s.  A c of the wrong length raises
    InvalidSpinStructure."""
    c = s.c
    if len(c) != p.n:
        raise _not_characteristic(p, s)
    x = _parity_mask(c)
    if type(s) is SpinStructure and type(c) is tuple:
        s.__dict__["_mask"] = x
    return x


class _SpinSpace(Sequence):
    """The solutions of q c = diag(q) mod 2 in ``masks`` order, unpacked on
    read.  Membership, ``count`` and ``index`` solve the characteristic
    equation instead of scanning the elements."""

    def __init__(self, p: SurgeryPresentation):
        self._p, self._sol, self._n = p, p.q._over_z2[2], p.n

    def _unpack(self, x: int) -> SpinStructure:
        """The element whose mask is x, carrying it: its instance dict gets
        c and the mask directly, as the frozen ``__init__`` and a stored
        mask would leave it."""
        s = _new(SpinStructure)
        d = s.__dict__
        d["c"] = _bits(x, self._n)
        d["_mask"] = x
        return s

    def __len__(self) -> int:
        return self._sol.count

    def __bool__(self) -> bool:
        # never empty (``spin_structures``), and len() raises past sys.maxsize
        return True

    def __iter__(self):
        return map(self._unpack, self._sol.masks())

    def __reversed__(self):
        return map(self.__getitem__, range(self._sol.count - 1, -1, -1))

    def __getitem__(self, k):
        sol = self._sol
        if type(k) is not int or not 0 <= k < sol.count:
            # bool, negative k, __index__ objects, slices and k out of range
            if isinstance(k, slice):
                return [self[i] for i in range(*k.indices(sol.count))]
            k = index(k)
            if not -sol.count <= k < sol.count:
                raise IndexError("spin structure index out of range")
            k %= sol.count
        # Mod2Solution.mask(k) and _unpack, inline: a read pays for its
        # table lookups and the element it returns
        x, tables = sol._tables
        for table in tables:
            x ^= table[k & _TAIL_LOW]
            k >>= _TAIL
        s = _new(SpinStructure)
        d = s.__dict__
        d["c"] = _bits(x, self._n)
        d["_mask"] = x
        return s

    def _member_mask(self, s) -> int | None:
        """The mask of s if s equals an element, else None.  Equality is
        the one a list of the elements applies: a ``SpinStructure`` whose c
        is a tuple of n entries, each equal to 0 or 1.  The entries equal
        to 1 are found, and the rest counted as equal to 0, at C speed."""
        if type(s) is not SpinStructure or not isinstance(s.c, tuple):
            return None
        c = s.c
        ones = bytes(map(eq, c, repeat(1)))
        if len(c) != self._n or c.count(0) + ones.count(1) != len(c):
            return None
        x = int(ones.translate(_PARITY_DIGITS)[::-1] or b"0", 2)
        sol = self._sol
        return x if sol.mask(sol.index(x)) == x else None

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
    2**(betti1 + alpha).  ``len()`` raises OverflowError past
    ``sys.maxsize``; indexing, iteration, ``reversed``, truth testing and
    membership do not.
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
    q = p.q
    n, diagonal = len(q.entries), q._over_z2[1]
    alpha, tables = p._wu_tables
    # s1, then s2: each mask, carried or read by _argument_mask, is walked
    # once over the Wu tables and must give q c = diag q above bit alpha
    x = s1._mask if type(s1) is SpinStructure and len(s1.c) == n else None
    if x is None:
        x = _argument_mask(p, s1)
    y1 = 0
    for table in tables:
        y1 ^= table[x & _CHUNK_LOW]
        x >>= _CHUNK
    if y1 >> alpha != diagonal:
        raise _not_characteristic(p, s1)
    x = s2._mask if type(s2) is SpinStructure and len(s2.c) == n else None
    if x is None:
        x = _argument_mask(p, s2)
    y2 = 0
    for table in tables:
        y2 ^= table[x & _CHUNK_LOW]
        x >>= _CHUNK
    if y2 >> alpha != diagonal:
        raise _not_characteristic(p, s2)
    # both upper parts are the diagonal, so they cancel
    coords = y1 ^ y2
    memo = p._wu_cosets
    coset = memo.get(coords)
    if coset is None:
        coset = WuCoset(Gamma2Element(_bits(coords, alpha)))
        if len(memo) < _WU_COSET_CAP:
            memo[coords] = coset
    return coset


def _not_characteristic(p: SurgeryPresentation, s: SpinStructure) -> InvalidSpinStructure:
    """The error of a Wu call whose argument s is not characteristic for p."""
    return InvalidSpinStructure(
        f"vector {_QUOTE.repr(s.c)} fails the characteristic equation "
        f"for {_QUOTE.repr(p.name)}"
    )
