"""Exact linear algebra over Z and Z2, and the one place that knows how
a matrix is reduced.

Smith normal form, invariant factors modulo the determinant, signatures
and determinants, and GF(2) linear algebra on int bitmask rows.  One
Smith pivot loop serves ``smith_normal_form``, with both unimodular
transforms, and ``smith_mod2``, with the factors and u^{-1} mod 2 only,
so no transform entry grows.  An ``IntSymMatrix`` q is reduced once over
Z and once over Z2, on first use, and keeps both results: one symmetric
Bareiss pass, on the upper triangle of the live block, gives the
signature, det q and an (n-1)-minor, from which
``_factors_mod_det`` finds the factors of a nonsingular q modulo a
divisor of det q; one Gauss-Jordan pass on q mod 2, augmented by diag q
mod 2, solves q c = diag q, whose kernel is ker(q mod 2).  Over Z2 a row
is an int whose bit j holds column j and row addition is XOR; one
Gauss-Jordan loop, which keys its pivot rows by their lowest set bit,
serves that pass and ``solve_mod2``.  A solution set is never listed:
solution k is read off tables of kernel combinations
(``Mod2Solution.mask``), ``Mod2Solution.masks`` streams them, and
``Mod2Solution.index`` reads k back, a bit per free column of a mask.
``_xor_tables`` builds those tables and the one table set per
presentation that makes q x mod 2 and the Gamma2 coordinates a few
lookups (``surgery``); ``_xor_lookup`` reads them, and ``spin`` walks
them inline on its per-element paths.  All integer arithmetic is
arbitrary precision and neither fractions nor floating point are used.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, prod
from typing import Iterator, Sequence

from .errors import _QUOTE, AsymmetricMatrix, NoSolution, _cached, _Value

Rows = Sequence[Sequence[int]]


class IntSymMatrix:
    """A symmetric matrix of arbitrary-precision integers.

    Symmetry is enforced at construction.  The empty (0x0) matrix is a
    legal value: it presents the empty link, hence the 3-sphere.  Its two
    reductions (``_over_z``, ``_over_z2``) run on first use and are kept.
    """

    def __init__(self, rows: Rows):
        """Each row is checked once, at C speed, for exact ``int`` entries
        and kept as it is; any other row is coerced through ``int()``.
        Symmetry is one comparison with the transpose; only when it fails
        does the scan run that names the first offending entry."""
        entries = tuple(map(_int_row, rows))
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise AsymmetricMatrix("matrix must be square")
        if entries != tuple(zip(*entries)):
            for i in range(n):
                for j in range(i):
                    if entries[i][j] != entries[j][i]:
                        raise AsymmetricMatrix(
                            f"entry ({i},{j}) = {_QUOTE.repr(entries[i][j])} differs "
                            f"from entry ({j},{i}) = {_QUOTE.repr(entries[j][i])}"
                        )
        self.entries: tuple[tuple[int, ...], ...] = entries

    @property
    def n(self) -> int:
        return len(self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    def row_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    @_cached
    def _over_z(self) -> tuple[int, int, int]:
        """(signature, det, an (n-1)-minor) from the one symmetric Bareiss
        pass (``_signature_det``)."""
        return _signature_det(self.row_lists())

    @_cached
    def _over_z2(self) -> tuple[tuple[int, ...], int, Mod2Solution]:
        """(rows of q mod 2 as bitmasks, diag q mod 2 as one bitmask, the
        solution of q c = diag q mod 2) from one Gauss-Jordan pass.  Pivots
        fall on columns < n only, so the solution is the one
        ``solve_mod2(entries, diagonal)`` gives."""
        n = self.n
        rows = tuple(map(_mask, self.entries))
        diagonal = _mask(self.diagonal())
        aug = [row | ((diagonal >> i) & 1) << n for i, row in enumerate(rows)]
        return rows, diagonal, _solve_augmented(aug, n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSymMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntSymMatrix({[list(r) for r in self.entries]!r})"


def _int_row(row) -> tuple[int, ...]:
    """row as a tuple of ints: kept when every entry is exactly an ``int``,
    else each entry goes through ``int()``."""
    row = tuple(row)
    return row if set(map(type, row)) <= {int} else tuple(map(int, row))


def _as_row_lists(a: IntSymMatrix | Rows) -> list[list[int]]:
    if isinstance(a, IntSymMatrix):
        return a.row_lists()
    return [list(map(int, row)) for row in a]


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _freeze(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


def congruence(a: IntSymMatrix, g: Rows) -> IntSymMatrix:
    """The congruent matrix g^T a g (g any square integer matrix)."""
    gl = _as_row_lists(g)
    n = a.n
    if len(gl) != n:
        raise ValueError("dimension mismatch in congruence")
    ag = [[sum(a.entries[i][k] * gl[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    gtag = [[sum(gl[k][i] * ag[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return IntSymMatrix(gtag)


# ----------------------------------------------------------------------
# Determinant (fraction-free Bareiss elimination)
# ----------------------------------------------------------------------

def det_int(a: IntSymMatrix | Rows) -> int:
    """Exact determinant of a square integer matrix.

    Entries go through ``int()``, in row-major order.  A matrix that is
    not square, ragged rows included, raises ValueError.  Up to 4 x 4 the
    determinant is a cofactor expansion; beyond that, fraction-free
    (Bareiss) elimination.
    """
    rows = a.entries if isinstance(a, IntSymMatrix) else tuple(a)
    n = len(rows)
    if n <= 4:
        try:  # unpacking checks that each row has n entries
            if n == 4:
                (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
            elif n == 3:
                (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
            elif n == 2:
                (a0, a1), (b0, b1) = rows
            elif n == 1:
                (a0,), = rows
        except ValueError:
            raise ValueError("det_int needs a square matrix") from None
        if n == 4:
            a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = map(
                int, (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3))
            # Laplace expansion along the top two rows, by 2 x 2 minors
            return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                    - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                    + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                    + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                    - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                    + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
        if n == 3:
            a0, a1, a2, b0, b1, b2, c0, c1, c2 = map(
                int, (a0, a1, a2, b0, b1, b2, c0, c1, c2))
            return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                    + a2 * (b0 * c1 - b1 * c0))
        if n == 2:
            a0, a1, b0, b1 = map(int, (a0, a1, b0, b1))
            return a0 * b1 - a1 * b0
        return int(a0) if n else 1
    m = [list(map(int, row)) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("det_int needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        prow = m[k]
        p = prow[k]
        for row in m[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - c * prow[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------

class SmithDecomposition(_Value):
    """Unimodular u, v and diagonal s with u*a*v = s.

    ``invariant_factors`` is the diagonal of ``s``: non-negative, each
    factor dividing the next, zeros trailing.
    """

    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    s: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]

    def __init__(self, u, v, s, invariant_factors) -> None:
        self._set(u, v, s, invariant_factors)


class SmithMod2(_Value):
    """Invariant factors of a and the inverse of the left transform u of
    u*a*v = s, mod 2.

    ``u_inverse_mod2[i]`` is column i of u^{-1} as a bitmask (bit j holds
    u^{-1}[j][i] mod 2).  The elimination is the one ``smith_normal_form``
    runs, so this is the inverse of that routine's u, reduced mod 2.
    """

    invariant_factors: tuple[int, ...]
    u_inverse_mod2: tuple[int, ...]

    def __init__(self, invariant_factors, u_inverse_mod2) -> None:
        self._set(invariant_factors, u_inverse_mod2)


class _IntRows:
    """Exact integer rows, starting from the identity, that replay row
    operations (a column operation on v is a row operation on v^T)."""

    def __init__(self, n: int):
        self.rows = _identity(n)

    def swap(self, i: int, j: int) -> None:
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def add(self, dst: int, src: int, c: int) -> None:
        row, srow = self.rows[dst], self.rows[src]
        for j in range(len(row)):
            row[j] += c * srow[j]

    def negate(self, k: int) -> None:
        self.rows[k] = [-x for x in self.rows[k]]


class _Mod2InverseCols:
    """The inverse of the replayed rows, mod 2, one int bitmask per
    column.  A row operation e turns the inverse w into w e^{-1}: a swap
    of rows i, j swaps columns i, j, and adding c times row src to row
    dst subtracts c times column dst from column src."""

    def __init__(self, n: int):
        self.cols = [1 << i for i in range(n)]

    def swap(self, i: int, j: int) -> None:
        self.cols[i], self.cols[j] = self.cols[j], self.cols[i]

    def add(self, dst: int, src: int, c: int) -> None:
        if c & 1:
            self.cols[src] ^= self.cols[dst]

    def negate(self, k: int) -> None:
        pass


def _min_abs_entry(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """The first entry, in row-major order, of least nonzero absolute value
    in the block a[t:][t:], or None when the block is zero."""
    best = None
    best_abs = 0
    for i in range(t, len(a)):
        for j, x in enumerate(a[i][t:], t):
            if x and (not best_abs or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
                if best_abs == 1:
                    return best
    return best


def _swap_cols(a: list[list[int]], j0: int, j1: int) -> None:
    for row in a:
        row[j0], row[j1] = row[j1], row[j0]


def _as_rect(a: IntSymMatrix | Rows) -> tuple[list[list[int]], int, int]:
    A = _as_row_lists(a)
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    return A, m, n


def _smith_reduce(A: list[list[int]], u, vt) -> tuple[int, ...]:
    """Reduce the m x n matrix A in place to Smith form; return its diagonal.

    This is the one pivot loop behind every Smith routine.  Each row
    operation on A is passed to ``u`` and each column operation to ``vt``
    (unless it is None) as the matching row operation, through
    ``swap``/``add``/``negate`` methods: ``_IntRows`` replays them, so
    vt ends as v^T, and ``_Mod2InverseCols`` keeps the inverse mod 2.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    r = min(m, n)
    u_add = u.add
    vt_add = None if vt is None else vt.add
    t = 0
    while t < r:
        piv = _min_abs_entry(A, t)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            u.swap(t, i0)
        if j0 != t:
            _swap_cols(A, t, j0)
            if vt is not None:
                vt.swap(t, j0)
        # rows and columns before t are zero outside the diagonal, so the
        # operations on A skip them
        live = A[t:]
        prow = A[t]
        p = prow[t]
        dirty = False
        for i in range(t + 1, m):
            row = A[i]
            if row[t]:
                q = row[t] // p
                for j in range(t, n):
                    row[j] -= q * prow[j]
                u_add(i, t, -q)
                if row[t]:
                    dirty = True
        for j in range(t + 1, n):
            if prow[j]:
                q = prow[j] // p
                for row in live:
                    row[j] -= q * row[t]
                if vt_add is not None:
                    vt_add(j, t, -q)
                if prow[j]:
                    dirty = True
        if dirty:
            # a remainder smaller than the pivot appeared; rehunt
            continue
        off = None
        if p not in (1, -1):  # a unit pivot divides everything
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    off = i
                    break
        if off is not None:
            # fold the offending row in so the pivot can shrink to the gcd
            orow = A[off]
            for j in range(t, n):
                prow[j] += orow[j]
            u_add(t, off, 1)
            continue
        t += 1
    for k in range(r):
        if A[k][k] < 0:
            A[k] = [-x for x in A[k]]
            u.negate(k)
    return tuple(A[k][k] for k in range(r))


def smith_normal_form(a: IntSymMatrix | Rows) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with transforms.

    Returns a decomposition with ``u @ a @ v == s`` exactly, where u and
    v are unimodular and s is diagonal with a divisibility chain
    d1 | d2 | ... (all di >= 0, zeros last).  The empty matrix yields
    the empty decomposition.
    """
    A, m, n = _as_rect(a)
    u, vt = _IntRows(m), _IntRows(n)
    factors = _smith_reduce(A, u, vt)
    return SmithDecomposition(_freeze(u.rows), tuple(zip(*vt.rows)), _freeze(A), factors)


def smith_mod2(a: IntSymMatrix | Rows) -> SmithMod2:
    """Invariant factors and u^{-1} mod 2 of ``smith_normal_form(a)``.

    Runs the same elimination but keeps u^{-1} over Z2 and no v at all,
    so no transform entry grows; only the entries of a itself do.
    """
    A, m, _ = _as_rect(a)
    u_inverse = _Mod2InverseCols(m)
    factors = _smith_reduce(A, u_inverse, None)
    return SmithMod2(factors, tuple(u_inverse.cols))


def _factors_mod_det(a: IntSymMatrix | Rows, d: int, minor: int) -> tuple[int, ...]:
    """Invariant factors of a square integer matrix a with |det a| = d > 0.

    ``minor`` is any multiple of the gcd of the (n-1)-minors of a: one
    (n-1)-minor of a matrix unimodularly equivalent to a, or 0.  That
    gcd is the product of every factor but the last, so each of those
    divides m = gcd(d, minor) and is found modulo m; the last factor is
    d over their product.

    coker(a) (x) Z/m is the cokernel of a over Z/m, and any row operation
    invertible mod m keeps it (Domich, Kannan and Trotter 1987; Hafner
    and McCurley 1991).  Column by column, an entry x with gcd(x, m) = 1
    is a pivot: one inverse of x mod m clears the column from the rows
    with a nonzero entry there, and the pivot row and column leave as a
    factor 1 with no column work.  The rows left over, restricted to the
    columns that had no unit entry, form a small block; its Smith
    diagonal s gives the factors gcd(s_i, m), with gcd(0, m) = m.  No
    entry ever exceeds m.  The result is the tuple
    ``smith_mod2(a).invariant_factors``.
    """
    rows = _as_row_lists(a)
    n = len(rows)
    m = gcd(d, minor)
    factors = [1] * n
    if m > 1:
        live = [[x % m for x in row] for row in rows]
        skipped: list[int] = []  # columns with no unit entry in a live row
        for c in range(n):
            r = next((i for i, row in enumerate(live) if gcd(row[c], m) == 1), None)
            if r is None:
                skipped.append(c)
                continue
            prow = live.pop(r)
            inv = pow(prow[c], -1, m)
            ptail = prow[c + 1:]
            for row in live:
                x = row[c]
                if x:
                    f = x * inv % m
                    row[c + 1:] = [(y - f * z) % m for y, z in zip(row[c + 1:], ptail)]
                    for j in skipped:
                        row[j] = (row[j] - f * prow[j]) % m
        block = [[row[j] for j in skipped] for row in live]
        # _smith_reduce replays its row operations on a u this routine drops
        diagonal = _smith_reduce(block, _Mod2InverseCols(len(block)), None)
        factors[n - len(block):] = [gcd(s, m) for s in diagonal]
    head = tuple(factors[:-1])
    return head + (d // prod(head),) if n else ()


# ----------------------------------------------------------------------
# Signature (fraction-free symmetric Bareiss elimination)
# ----------------------------------------------------------------------

def _rescale(row: list[int], t: int, old: int, new: int) -> None:
    """Bring the live part row[t:] from pivot level ``old`` to ``new``."""
    if old != new:
        row[t:] = [x * new // old for x in row[t:]]


def signature(a: IntSymMatrix | Rows) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Returns (#positive - #negative eigenvalues) by symmetric congruence
    reduction in integers only; see ``_signature_det``.  The empty
    matrix has signature 0.  An ``IntSymMatrix`` keeps its pass.
    """
    if isinstance(a, IntSymMatrix):
        return a._over_z[0]
    return _signature_det(_as_row_lists(a))[0]


def _signature_det(M: list[list[int]]) -> tuple[int, int, int]:
    """(signature, determinant, an (n-1)-minor) of the symmetric matrix
    M, consumed.

    Symmetric Bareiss elimination (Bareiss 1968).  After a pivot p the
    trailing block holds p times the Schur complement, so the next step
    divides exactly by p, and the rational pivot the step stands for is
    new/p: positive when the new pivot has the sign of p.

    The block is symmetric, so only its upper triangle is kept: live row
    i is updated on columns >= i alone, and the entry c it would hold in
    the pivot column is read from the pivot row, as piv[i].  Rows with
    piv[i] = 0 are skipped, so a sparse matrix costs little more than its
    nonzero entries.  Scaling is lazy: a skipped row is left as it is and
    remembers the pivot ``level[i]`` it was last scaled by.  Row i times
    (current pivot) / level[i] is its value in the current block, an
    integer because every such entry is a bordered minor; so is c, brought
    to row i's level as piv[i] * level[i] / (current pivot).

    The symmetric swap and the hyperbolic "mate" step are congruences by
    unimodular matrices, so the pivots are the leading minors of a
    matrix unimodularly congruent to M: the last is det M unless a zero
    row turned up, when det M = 0, and the one before it (1 when n <= 1)
    is an (n-1)-minor of that matrix.  They need the lower half, so when
    the next diagonal entry is 0 every live row is first brought to the
    current level and the lower half of the live block is copied from the
    upper half.
    """
    n = len(M)
    level = [1] * n
    prev = minor = 1
    pos = neg = 0
    singular = False
    t = 0
    while t < n:
        if M[t][t] == 0:
            for i in range(t, n):
                row = M[i]
                _rescale(row, i, level[i], prev)
                level[i] = prev
                row[t:i] = [M[j][i] for j in range(t, i)]
            swap = next((j for j in range(t + 1, n) if M[j][j] != 0), None)
            if swap is not None:
                M[t], M[swap] = M[swap], M[t]
                for k in range(t, n):
                    row = M[k]
                    row[t], row[swap] = row[swap], row[t]
            else:
                mate = next((j for j in range(t + 1, n) if M[t][j] != 0), None)
                if mate is None:
                    # zero row: a zero eigenvalue, no signature contribution
                    singular = True
                    t += 1
                    continue
                # all remaining diagonal entries vanish, so this makes
                # M[t][t] = 2*M[t][mate] != 0
                rt, rm = M[t], M[mate]
                for j in range(t, n):
                    rt[j] += rm[j]
                for k in range(t, n):
                    M[k][t] += M[k][mate]
        piv = M[t]
        _rescale(piv, t, level[t], prev)
        p = piv[t]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in compress(range(t + 1, n), piv[t + 1:]):
            row = M[i]
            lv = level[i]
            c = piv[i] if lv == prev else piv[i] * lv // prev
            row[i:] = [(p * x - c * y) // lv for x, y in zip(row[i:], piv[i:])]
            level[i] = p
        minor, prev = prev, p
        t += 1
    return pos - neg, 0 if singular else prev, minor


# ----------------------------------------------------------------------
# Z2 linear algebra on int bitmask rows
# ----------------------------------------------------------------------

# Vectors per XOR table (``_xor_tables``): _TAIL for the kernel vectors of a
# Mod2Solution, which spin enumeration reads many times over.  _CHUNK, for the
# Wu tables (``SurgeryPresentation._wu_tables``), is smaller because a
# presentation may test only a few vectors against up to a few hundred rows:
# n/4 tables of 16 entries cost about as much to build as those tests save,
# where n/8 tables of 256 cost several times more.
_TAIL = 8
_CHUNK = 4


def _mask(bits: Sequence[int]) -> int:
    """A 0/1 (or any integer) vector as a bitmask: bit j is bits[j] mod 2."""
    return sum(1 << j for j in compress(range(len(bits)), bits) if bits[j] & 1)


def _xor_tables(vectors: Sequence[int], width: int) -> tuple[list[int], ...]:
    """XOR tables of bitmask vectors, width vectors to a table: entry b of
    table t is the XOR of the vectors[t * width + j] at the set bits j of b.
    Each table is built by doubling, one XOR per entry."""
    tables = []
    for start in range(0, len(vectors), width):
        table = [0]
        for vec in vectors[start:start + width]:
            table += [t ^ vec for t in table]
        tables.append(table)
    return tuple(tables)


def _xor_lookup(tables: Sequence[list[int]], x: int, width: int) -> int:
    """The XOR of the vectors at the set bits of x, from their
    ``_xor_tables(vectors, width)``: one lookup per table.  Bits of x past
    the last vector are ignored, and x may have them only when the last
    table is full."""
    low = (1 << width) - 1
    acc = 0
    for table in tables:
        acc ^= table[x & low]
        x >>= width
    return acc


def _gauss_jordan_mod2(rows: list[int], ncols: int) -> list[int]:
    """Reduce bitmask rows in place over Z2; return the pivot columns.

    Columns 0 .. ncols-1 are eliminated; any higher bits ride along as
    augmented columns.  Each row in turn is reduced against the pivot rows
    kept so far, keyed by their lowest set bit, until its lowest set bit
    is no pivot's: below ncols the row becomes that column's pivot row,
    else it has no bit below ncols left.  Then each pivot row is cleared
    of the other pivot bits, from the highest pivot down.  A banded matrix
    costs steps in proportion to its band, not to n**2.  The rows end in
    reduced row echelon form: the pivot rows in column order, then the
    rest.
    """
    left = (1 << ncols) - 1
    pivot_rows: dict[int, int] = {}  # lowest set bit (as 1 << c) -> row
    get = pivot_rows.get
    rest = []
    for row in rows:
        low = row & -row
        prow = get(low)
        while prow is not None:
            row ^= prow
            low = row & -row
            prow = get(low)
        if 0 < low <= left:
            pivot_rows[low] = row
        else:  # zero below ncols
            rest.append(row)
    order = sorted(pivot_rows)
    pivot_bits = sum(order)
    for low in reversed(order):
        # the pivot rows of higher columns are cleared already, so each XOR
        # removes one pivot bit and adds none
        row = pivot_rows[low]
        higher = (row & pivot_bits) ^ low
        while higher:
            bit = higher & -higher
            row ^= pivot_rows[bit]
            higher ^= bit
        pivot_rows[low] = row
    rows[:] = [pivot_rows[low] for low in order] + rest
    return [low.bit_length() - 1 for low in order]


class Mod2Solution(_Value):
    """One solution of a Z2 system together with a kernel basis.

    The full solution set is ``particular + span(kernel)``; it has
    exactly ``2 ** len(kernel)`` elements.
    """

    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]

    def __init__(self, particular, kernel) -> None:
        self._set(particular, kernel)

    @_cached
    def count(self) -> int:
        return 2 ** len(self.kernel)

    @_cached
    def _tables(self) -> tuple[int, tuple[list[int], ...]]:
        """(the particular solution as a mask, ``_xor_tables`` of the kernel
        vectors, last first, _TAIL to a table).  With no kernel there is one
        table, [0], so that ``masks`` has a tail to walk."""
        basis = [_mask(k) for k in reversed(self.kernel)]
        return _mask(self.particular), _xor_tables(basis, _TAIL) or ([0],)

    def mask(self, k: int) -> int:
        """Solution k (0 <= k < count) as a bitmask (bit j holds x_j): the
        particular solution XOR the kernel vectors picked by the bits of
        k, the first kernel vector the most significant bit."""
        x, tables = self._tables
        return x ^ _xor_lookup(tables, k, _TAIL)

    @_cached
    def _free_columns(self) -> tuple[int, ...]:
        """The free column of each kernel vector, its top bit, in kernel
        order (``index``)."""
        return tuple(_mask(vec).bit_length() - 1 for vec in self.kernel)

    def index(self, x: int) -> int:
        """The k whose ``mask(k)`` agrees with x on the free columns, so
        ``mask(index(x)) == x`` exactly when x is a solution.  For a
        Gauss-Jordan pass each kernel vector has its free column as its top
        bit, which no other kernel vector sets, so the bits of k are those
        columns' bits of x XOR the particular solution."""
        x ^= self._tables[0]
        k = 0
        for f in self._free_columns:
            k = (k << 1) | ((x >> f) & 1)
        return k

    def masks(self) -> Iterator[int]:
        """``mask(0)``, ``mask(1)``, ... streamed: each head ``mask(k)``
        with k a multiple of 2**_TAIL walks table 0."""
        tail = self._tables[1][0]
        for high in range(0, self.count, len(tail)):
            yield from map(self.mask(high).__xor__, tail)


def solve_mod2(m: IntSymMatrix | Rows, b: Sequence[int]) -> Mod2Solution:
    """Solve m x = b over Z2 by Gauss-Jordan elimination.

    Entries of m and b are read mod 2.  Raises NoSolution when b is
    outside the column space.  Free variables are set to 0 in the
    particular solution; the kernel basis has one vector per free
    column.
    """
    A, nrows, ncols = _as_rect(m)
    rhs = [int(x) & 1 for x in b]
    if len(rhs) != nrows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    # [m | b]: b rides in bit ncols
    return _solve_augmented([_mask(row) | (x << ncols) for row, x in zip(A, rhs)], ncols)


def _solve_augmented(aug: list[int], ncols: int) -> Mod2Solution:
    """The solution of [m | b], given as bitmask rows with b in bit
    ``ncols``; the rows are reduced in place."""
    pivots = _gauss_jordan_mod2(aug, ncols)
    if any(row >> ncols for row in aug[len(pivots):]):
        raise NoSolution("right-hand side is outside the column space")

    x = [0] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row >> ncols
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(aug, pivots):
            vec[c] = (row >> f) & 1
        kernel.append(tuple(vec))
    return Mod2Solution(tuple(x), tuple(kernel))
