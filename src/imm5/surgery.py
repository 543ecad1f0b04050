"""Surgery presentations of closed oriented 3-manifolds.

A manifold enters as the linking matrix q of a framed link (framings on
the diagonal).  Everything homological is read off the invariant
factors of q: H1 = coker(q), its free rank and torsion, the count alpha
of even torsion factors, and the 2-torsion subgroup Gamma2 of H^2 that
indexes the Wu classes.  H^2 is identified with H1 throughout via
Poincare duality, so only the group structure is ever represented.

q is reduced once over Z and once over Z2 by ``intlinalg``.  Each
presentation computes H1 once, lazily, by one of two routes chosen here
and nowhere else (``SurgeryPresentation._h1``), and keeps the invariant
factors and the Gamma2 generators, one bitmask over the link components
per even torsion factor.

* When det q != 0 and ker(q mod 2) has at most two elements, the factors
  are computed modulo a divisor of |det q| (``_factors_mod_det``), and
  betti1 = 0.  Then H^1(M; Z2) = ker(q mod 2) = {0, k} maps
  isomorphically onto Gamma2, of rank alpha <= 1, so a spin difference
  delta has the one Wu coordinate [delta = k] whatever basis Gamma2 is
  given: the single generator is the lowest set bit of k, and alpha = 0
  has none.
* Otherwise (q singular, or alpha >= 2) ``smith_mod2`` runs the Smith
  elimination u q v = s and keeps u^{-1} mod 2.  The generator of the
  i-th Smith factor is column i of u^{-1} mod 2, the Smith generator
  u^{-1} e_i reduced mod 2.  For alpha >= 2 the coordinates depend on
  that basis, and files key ``spin_boundary_signatures`` by them.

One set of XOR tables, built on first use, stacks the two linear maps
the Wu map needs on a mask x over the link components: the Gamma2
coordinates of x in the low alpha bits, q x mod 2 above them
(``SurgeryPresentation._wu_tables``).  One walk of x both tests it
against diag q and reads its coordinates.  The Wu cosets built from
those coordinates are kept up to a cap
(``SurgeryPresentation._wu_cosets``).
"""

from __future__ import annotations

import itertools

from .errors import _cached, _Value
from .intlinalg import _CHUNK, IntSymMatrix, _factors_mod_det, _xor_tables, smith_mod2


class SurgeryPresentation(_Value):
    """A closed oriented 3-manifold given by a framed-link linking matrix."""

    name: str
    q: IntSymMatrix

    def __init__(self, name, q) -> None:
        self._set(name, q)

    @property
    def n(self) -> int:
        return self.q.n

    @_cached
    def _h1(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(invariant factors of q, Gamma2 generators), by the route the
        module docstring describes."""
        kernel = self.q._over_z2[2].kernel
        if len(kernel) <= 1:
            _, det, minor = self.q._over_z
            if det:
                # the lowest set bit of the nonzero k in ker(q mod 2)
                return (_factors_mod_det(self.q, abs(det), minor),
                        tuple(1 << k.index(1) for k in kernel))
        smith = smith_mod2(self.q)
        factors = smith.invariant_factors
        return factors, tuple(smith.u_inverse_mod2[i]
                              for i in even_torsion_positions(factors))

    @property
    def gamma2_generators(self) -> tuple[int, ...]:
        """One bitmask g_i over the link components per even torsion
        factor, in Smith order; a class delta in H^1(M; Z2) has Gamma2
        coordinate i equal to delta(g_i).  The module docstring says
        which route gives them."""
        return self._h1[1]

    @_cached
    def _wu_tables(self) -> tuple[int, tuple[list[int], ...]]:
        """(alpha, ``_xor_tables`` of v_0 .. v_{n-1}, _CHUNK to a table).
        v_j holds bit i when g_i has bit j, and row j of q mod 2 shifted up
        by alpha.  q is symmetric, so the XOR of the v_j at the set bits of
        a mask x is y = (the Gamma2 coordinates of x) | (q x mod 2) << alpha:
        x is characteristic when y >> alpha is diag q mod 2, and coordinate
        i of a class delta in H^1(M; Z2) is bit i of its y."""
        gens = self.gamma2_generators
        vectors = [row << len(gens) for row in self.q._over_z2[0]]
        for i, g in enumerate(gens):
            while g:
                low = g & -g
                vectors[low.bit_length() - 1] |= 1 << i
                g ^= low
        return len(gens), _xor_tables(vectors, _CHUNK)

    @_cached
    def _wu_cosets(self) -> dict:
        """The Wu cosets built so far, keyed by their Gamma2 coordinates as
        one bitmask (coordinate i at bit i), so that a coset seen before is
        returned, not built again.  ``spin.wu_coset_of_difference`` stores
        at most ``spin._WU_COSET_CAP`` of them."""
        return {}


class HomologyProfile(_Value):
    """First-homology data of the presented manifold.

    betti1           rank of H1(M; Z)
    torsion_factors  invariant factors of the torsion subgroup (each >= 2,
                     divisibility chain in Smith order)
    alpha            (derived) number of even torsion factors, i.e.
                     dim_Z2 (torsion H1 (x) Z2), which is also the rank
                     of Gamma2(M) as a Z2 vector space
    """

    betti1: int
    torsion_factors: tuple[int, ...]

    def __init__(self, betti1, torsion_factors) -> None:
        self._set(betti1, torsion_factors)

    @_cached
    def alpha(self) -> int:
        return len(even_torsion_positions(self.torsion_factors))

    @property
    def gamma2_order(self) -> int:
        return 2 ** self.alpha

    @property
    def spin_structure_count(self) -> int:
        """|H^1(M; Z2)| = 2**(betti1 + alpha) (universal coefficients)."""
        return 2 ** (self.betti1 + self.alpha)


class Gamma2Element(_Value):
    """An element of Gamma2(M) in the fixed Smith-basis coordinates.

    Coordinates are one bit per even torsion factor, in Smith order;
    addition is coordinatewise mod 2.
    """

    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]) -> None:
        # a tuple of bits passes at C speed; anything else is checked entry
        # by entry.  The field is stored directly, without a call to _set
        if (type(coords) is not tuple
                or coords.count(0) + coords.count(1) != len(coords)):
            if any(b not in (0, 1) for b in coords):
                raise ValueError("coordinates must be bits")
        object.__setattr__(self, "coords", coords)

    # equality and hash read the one field directly: spin-wide parsing and
    # embedding_classes key dicts by cosets.  The hash is that of the tuple
    # of fields, as for every value type
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    @classmethod
    def zero(cls, rank: int) -> "Gamma2Element":
        return cls((0,) * rank)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Gamma2Element") -> "Gamma2Element":
        # another class gets NotImplemented, so that Python raises TypeError
        if other.__class__ is not self.__class__:
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise ValueError("rank mismatch")
        return Gamma2Element(tuple(a ^ b for a, b in zip(self.coords, other.coords)))

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        return "".join(str(b) for b in self.coords)


def homology_profile(p: SurgeryPresentation) -> HomologyProfile:
    """H1 of the presented manifold, as coker(q) read off its invariant
    factors; the module docstring says which route computes them."""
    factors = p._h1[0]
    betti1 = sum(1 for d in factors if d == 0)
    torsion = tuple(d for d in factors if d >= 2)
    return HomologyProfile(betti1, torsion)


def gamma2_elements(h: HomologyProfile) -> list[Gamma2Element]:
    """All 2**alpha elements of Gamma2, the zero element first."""
    return [Gamma2Element(bits)
            for bits in itertools.product((0, 1), repeat=h.alpha)]


def even_torsion_positions(invariant_factors: tuple[int, ...]) -> list[int]:
    """Smith-diagonal indices carrying an even torsion factor.

    These index the fixed basis of Gamma2: the order-two elements
    (d_i/2) g_i of coker(q) for each even invariant factor d_i.
    """
    return [i for i, d in enumerate(invariant_factors) if d != 0 and d % 2 == 0]

