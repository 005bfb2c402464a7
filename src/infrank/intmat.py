"""Dense exact-integer matrices and Smith-normal-form machinery.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point.  ``_unimodular_inverse`` inverts a matrix of up to 4 x 4 by
its adjugate; the one modular computation is its 2-adic inverse of a larger
one, which, like any inverse handed in, is accepted by one exact product
(``accept_inverse``).  Matrices are immutable, so values can be shared
freely between threads.

Products are taken on row pairs (``Pairs``): each row's nonzero entries as
``(column, value)`` pairs.  ``pairs_product`` is the one product kernel;
``IntMatrix.__mul__`` and ``power`` go through it, and a window of a
sparse automorphism is checked in that form without ever being made dense.
Row pairs are tuples, so a row shared between results stays immutable.

A matrix keeps what it makes of itself: its row pairs (``IntMatrix.pairs``)
and its inverse, or that it has none (``IntMatrix.inverse``), each made on
first use (or accepted) and kept in the instance, outside the dataclass
fields.  Two threads that make one at once store equal immutable values, so
sharing stays safe; nothing is kept past the matrix itself.

Convention used throughout the library: matrices act on column vectors,
i.e. column ``j`` of the matrix of an automorphism holds the image of the
``j``-th basis vector.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import inf, prod
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, NotCompletableError, ValidationError


Rows = Sequence[Sequence[int]]
# each row's nonzero entries as (column, value) pairs, in column order
Pairs = tuple[tuple[tuple[int, int], ...], ...]


def identity_rows(n: int) -> list[list[int]]:
    """The n x n identity as mutable rows: zero rows with the diagonal set."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.data:
            w = len(self.data[0])
            for row in self.data:
                if len(row) != w:
                    raise DimensionError("ragged rows in matrix literal")
                for x in row:
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise ValidationError(f"non-integer entry {x!r}")

    @classmethod
    def _trusted(
        cls, data: tuple[tuple[int, ...], ...], pairs: Optional[Pairs] = None
    ) -> "IntMatrix":
        """Wrap rows already known to be rectangular ``int`` tuples, with
        their row pairs when the caller holds them.

        For results computed from valid matrices (products, sums, windows,
        Smith transforms), whose entries need no second check.  Outside
        input goes through ``IntMatrix(...)`` or ``from_rows``.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "data", data)
        if pairs is not None:
            m.__dict__["_pairs"] = pairs
        return m

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted(tuple(map(tuple, identity_rows(n))))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._trusted(tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def block_diag(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                out[r + i][c : c + b.cols] = list(b.data[i])
            r += b.rows
            c += b.cols
        return IntMatrix._trusted(tuple(map(tuple, out)))

    # -- shape ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        if r0 == c0 == 0 and r1 == self.rows and c1 == self.cols:
            return self  # the whole matrix, with what it keeps
        return IntMatrix._trusted(tuple(row[c0:c1] for row in self.data[r0:r1]))

    def top_left(self, n: int) -> "IntMatrix":
        return self.submatrix(0, n, 0, n)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionError("hstack needs equal row counts")
        return IntMatrix._trusted(tuple(a + b for a, b in zip(self.data, other.data)))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data))
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(c * a for a in row) for row in self.data))

    @staticmethod
    def from_pairs(pairs: Pairs, cols: int) -> "IntMatrix":
        """The dense matrix with the given row pairs, which it keeps, and
        ``cols`` columns."""
        out = []
        for entries in pairs:
            row = [0] * cols
            for c, v in entries:
                row[c] = v
            out.append(tuple(row))
        return IntMatrix._trusted(tuple(out), pairs)

    @property
    def pairs(self) -> Pairs:
        """The row pairs (``row_pairs``) of this matrix, made on first read."""
        p = self.__dict__.get("_pairs")
        if p is None:
            p = self.__dict__["_pairs"] = row_pairs(self.data)
        return p

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix.from_pairs(pairs_product(self.pairs, other.pairs), other.cols)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in self.data)

    def power(self, e: int) -> "IntMatrix":
        if not self.is_square:
            raise DimensionError("power needs a square matrix")
        base = self.inverse() if e < 0 else self
        return IntMatrix.from_pairs(pairs_power(base.pairs, abs(e)), self.cols)

    def is_identity(self) -> bool:
        """Whether this is a square identity matrix, read off the entries
        without building one to compare against."""
        n = self.rows
        return self.cols == n and all(
            row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.data)
        )

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")

    # -- exact linear algebra -------------------------------------------

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self._inverse() is not None

    def inverse(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix: det times the adjugate up to
        4 x 4, above that 2-adic elimination accepted by an exact product
        (``_unimodular_inverse``)."""
        inv = self._inverse()
        if inv is None:
            raise ValidationError("matrix is not unimodular; no integer inverse")
        return inv

    def _inverse(self) -> Optional["IntMatrix"]:
        """The inverse ``accept_inverse`` kept, or else ``_unimodular_inverse``
        of this matrix, made on first use and kept, None too.  A 0 x 0 or
        1 x 1 matrix that is its own inverse is not kept: a matrix holding
        itself would be a reference cycle."""
        d = self.__dict__
        inv = d.get("_inv", d)
        if inv is d:
            inv = _unimodular_inverse(self)
            if inv is not self:
                d["_inv"] = inv
        return inv

    def entries(self) -> Iterable[int]:
        for row in self.data:
            yield from row

    def __str__(self) -> str:
        if not self.data:
            return "[]"
        texts = [list(map(str, row)) for row in self.data]
        widths = [max(map(len, column)) for column in zip(*texts)]
        return "\n".join(" ".join(map(str.rjust, row, widths)) for row in texts)


def row_pairs(rows: Rows) -> Pairs:
    """Each row as its nonzero (column, value) pairs; ``compress`` skips the
    zeros without an interpreted step."""
    return tuple(tuple(compress(enumerate(row), row)) for row in rows)


def identity_pairs(n: int) -> Pairs:
    return tuple(((i, 1),) for i in range(n))


def pairs_product(a: Pairs, b: Pairs) -> Pairs:
    """``a * b`` on row pairs: Gustavson's row-by-row product (ACM TOMS
    1978).  Each row of the result adds the rows of b that the row of a
    names, scaled by its entries, so a product costs one multiply-add per
    nonzero term pair.

    A row of a with one entry gives b's row scaled, and b's row itself for
    the entry 1.  Other rows add into an accumulator: a list as wide as b,
    read back by ``compress``, for a row whose terms are expected to fill
    an eighth of that width or more, else a dict of the columns met,
    sorted once.  Entries that cancel are dropped either way.  A product by
    the identity is a itself.
    """
    terms = sum(map(len, b))
    if terms == len(b) and all(row == ((i, 1),) for i, row in enumerate(b)):
        return a
    width = 1 + max((r[-1][0] for r in b if r), default=-1)
    # a row of a with this many entries is expected to add width / 8 terms
    dense_from = width * len(b) / (8 * terms) if terms else inf
    out = []
    for row in a:
        if len(row) == 1:
            (k, x), = row
            if x == 1:
                out.append(b[k])
            elif x == -1:
                out.append(tuple((c, -y) for c, y in b[k]))
            else:
                out.append(tuple((c, x * y) for c, y in b[k]))
            continue
        acc = [0] * width if len(row) >= dense_from else defaultdict(int)
        for k, x in row:
            if x == 1:
                for c, y in b[k]:
                    acc[c] += y
            elif x == -1:
                for c, y in b[k]:
                    acc[c] -= y
            else:
                for c, y in b[k]:
                    acc[c] += x * y
        if type(acc) is list:
            out.append(tuple(compress(enumerate(acc), acc)))
        else:
            items = sorted(acc.items())
            out.append(tuple(p for p in items if p[1]) if 0 in acc.values() else tuple(items))
    return tuple(out)


def pairs_power(p: Pairs, e: int) -> Pairs:
    """p^e for e >= 0, by square and multiply on ``pairs_product``.  For
    e >= 1 there is neither a product by the identity nor a final unused
    squaring: bit_length - 1 + popcount - 1 products."""
    if e == 0:
        return identity_pairs(len(p))
    result = None
    while True:
        if e & 1:
            result = p if result is None else pairs_product(result, p)
        e >>= 1
        if not e:
            return result
        p = pairs_product(p, p)


def pairs_sum(a: Pairs, b: Pairs) -> Pairs:
    """a + b on row pairs, row by row; a row of either that is empty gives
    the other's row as it is."""
    out = []
    for ra, rb in zip(a, b):
        if not ra or not rb:
            out.append(ra or rb)
            continue
        acc = dict(ra)
        get = acc.get
        for c, y in rb:
            acc[c] = get(c, 0) + y
        out.append(tuple(p for p in sorted(acc.items()) if p[1]))
    return tuple(out)


def apply_pairs(p: Pairs, vector: Sequence[int]) -> tuple[int, ...]:
    """The matrix with row pairs p times a column vector."""
    return tuple(sum(y * vector[c] for c, y in row) for row in p)


def _unimodular_inverse(m: IntMatrix) -> Optional[IntMatrix]:
    """The integer inverse of m, or None unless m is square and unimodular.

    Up to 4 x 4, det(A) * adj(A) (``_adjugate_inverse``).  Above that,
    2-adic lifting (Dixon 1982) closed by an exact check (Abbott, Bronstein
    & Mulders 1999): det A = +-1 is odd, so A has one inverse mod 2^k, which
    ``_inverse_mod_2k`` gives in symmetric residues, with the row pairs that
    the check multiplies by.  ``accept_inverse`` accepts it; otherwise
    k doubles from its start, the entry bit length of A plus a margin.
    Every entry of a true inverse is a cofactor, at most the Hadamard bound
    prod ||row_i||: once 2^(k-1) exceeds it, a failed check proves A is not
    unimodular.
    """
    if not m.is_square:
        return None
    a, n = m.data, m.rows
    if n < 2:
        return m if all(row[0] in (1, -1) for row in a) else None
    if n <= 4:
        inv = _adjugate_inverse(a)
        return None if inv is None else IntMatrix._trusted(inv)
    k = max(map(abs, chain.from_iterable(a))).bit_length() + 2 * n.bit_length() + 8
    while True:
        inv = _inverse_mod_2k(a, k)
        if inv is None:
            return None
        b = IntMatrix._trusted(tuple(map(tuple, inv[0])), inv[1])
        if accept_inverse(m, b):
            return b
        if 4 ** (k - 1) > prod(sum(x * x for x in row) for row in a):  # squares of both sides
            return None
        k *= 2


def _adjugate_inverse(a: Rows) -> Optional[tuple[tuple[int, ...], ...]]:
    """det(A) * adj(A) for a 2 x 2, 3 x 3 or 4 x 4 A of det +-1, else None.

    A * adj(A) = det(A) * I, so when det = +-1 this is A's one inverse,
    exactly, with no lift and no product to check it by.  det is read off
    cofactors before the rest of the adjugate is made: the first row's for
    3 x 3, and for 4 x 4 the six 2 x 2 minors of the top two rows (s0..s5)
    against the complementary six of the bottom two (c0..c5), the Laplace
    expansion along the top two rows.  Each cofactor of a 4 x 4 is then one
    row's three entries against three of those twelve minors.
    """
    if len(a) == 2:
        (p, q), (r, s) = a
        d = p * s - q * r
        if d != 1 and d != -1:
            return None
        return (d * s, -d * q), (-d * r, d * p)
    if len(a) == 3:
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = a
        k0, k1, k2 = y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0
        d = x0 * k0 + x1 * k1 + x2 * k2
        if d != 1 and d != -1:
            return None
        return (
            (d * k0, d * (x2 * z1 - x1 * z2), d * (x1 * y2 - x2 * y1)),
            (d * k1, d * (x0 * z2 - x2 * z0), d * (x2 * y0 - x0 * y2)),
            (d * k2, d * (x1 * z0 - x0 * z1), d * (x0 * y1 - x1 * y0)),
        )
    (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3), (w0, w1, w2, w3) = a
    # the 2 x 2 minors on columns (0,1), (0,2), (0,3), (1,2), (1,3), (2,3):
    # s of the top two rows, c of the bottom two; s_i and c_(5-i) complement
    s0, s1, s2 = x0 * y1 - y0 * x1, x0 * y2 - y0 * x2, x0 * y3 - y0 * x3
    s3, s4, s5 = x1 * y2 - y1 * x2, x1 * y3 - y1 * x3, x2 * y3 - y2 * x3
    c0, c1, c2 = z0 * w1 - w0 * z1, z0 * w2 - w0 * z2, z0 * w3 - w0 * z3
    c3, c4, c5 = z1 * w2 - w1 * z2, z1 * w3 - w1 * z3, z2 * w3 - w2 * z3
    d = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    if d != 1 and d != -1:
        return None
    return (
        (d * (y1 * c5 - y2 * c4 + y3 * c3), d * (x2 * c4 - x1 * c5 - x3 * c3),
         d * (w1 * s5 - w2 * s4 + w3 * s3), d * (z2 * s4 - z1 * s5 - z3 * s3)),
        (d * (y2 * c2 - y0 * c5 - y3 * c1), d * (x0 * c5 - x2 * c2 + x3 * c1),
         d * (w2 * s2 - w0 * s5 - w3 * s1), d * (z0 * s5 - z2 * s2 + z3 * s1)),
        (d * (y0 * c4 - y1 * c2 + y3 * c0), d * (x1 * c2 - x0 * c4 - x3 * c0),
         d * (w0 * s4 - w1 * s2 + w3 * s0), d * (z1 * s2 - z0 * s4 - z3 * s0)),
        (d * (y1 * c1 - y0 * c3 - y2 * c0), d * (x0 * c3 - x1 * c1 + x2 * c0),
         d * (w1 * s1 - w0 * s3 - w2 * s0), d * (z0 * s3 - z1 * s1 + z2 * s0)),
    )


def accept_inverse(a: IntMatrix, b: IntMatrix) -> bool:
    """The one rule by which a candidate b, lifted or handed in, becomes a's
    inverse: a, b square of one size and a * b = I exactly (then b * a = I
    too).  Kept in a's ``_inv`` slot
    unless b is a, a reference cycle; a refused b is never kept."""
    n = a.rows
    if not (a.cols == b.rows == b.cols == n) or pairs_product(a.pairs, b.pairs) != identity_pairs(n):
        return False
    if b is not a:
        a.__dict__["_inv"] = b
    return True


def _inverse_mod_2k(a: Rows, k: int) -> Optional[tuple[list[list[int]], Pairs]]:
    """A^-1 mod 2^k in symmetric residues, as rows and as ``row_pairs``, or
    None when a column without an odd pivot proves det even, or det mod 2^k
    (+- the product of the pivots) is not +-1.

    Gauss-Jordan on ``[A | I]`` with a +-1 pivot where there is one, so that
    it needs no modular inverse.  Only the pivot row and the multipliers are
    reduced: every other entry gains one product of two reduced values per
    column, so none grows past about 2k bits.  Only nonzero entries are
    visited: for column t, one C-level pass gathers the rows with a nonzero
    entry there, which hold both the pivot candidates and the rows to clear,
    and the pivot row and the read-out walk their nonzero entries alone.
    A pivot row takes position t only once column t is cleared, so rows
    0..t-1 are the pivot rows of columns 0..t-1 and the pivot of column t
    is drawn from rows t onward.
    """
    n, size = len(a), 1 << k
    half, mask = size >> 1, size - 1
    span, width = range(n), range(2 * n)
    zeros = [0] * n
    rows = [[*row, *zeros] for row in a]
    for i, row in enumerate(rows, n):
        row[i] = 1
    det = 1
    for t, at_t in enumerate(map(itemgetter, span)):
        live = list(compress(span, map(at_t, rows)))
        p = None
        for i in live:
            if i >= t:
                v = rows[i][t]
                if v & 1:
                    if v == 1 or v == -1:
                        p = i
                        break
                    if p is None:
                        p = i
        if p is None:
            return None
        prow = rows[p]
        pv = ((prow[t] + half) & mask) - half
        det = det * pv & mask
        u = pv if pv in (1, -1) else pow(pv, -1, size)
        prow[t] = 0  # kept out of the multipliers; set to 1 once the column is clear
        nz = []
        for c in compress(width, prow):
            prow[c] = v = ((prow[c] * u + half) & mask) - half
            if v:
                nz.append((c, v))
        for i in live:
            if i != p:
                row = rows[i]
                q = ((row[t] + half) & mask) - half
                row[t] = 0
                for c, v in nz:
                    row[c] -= q * v
        prow[t] = 1
        rows[p], rows[t] = rows[t], prow
    if det != 1 and det != mask:
        return None
    pairs = []
    for row in rows:
        del row[:n]
        nonzero = []
        for c in compress(span, row):
            row[c] = v = ((row[c] + half) & mask) - half
            if v:
                nonzero.append((c, v))
        pairs.append(tuple(nonzero))
    return rows, tuple(pairs)


class SnfResult:
    """Transforms ``u * input * v == d`` with u, v unimodular and d in Smith
    form.  u, v and their inverses are replayed from ``snf``'s record of its
    operations on first read (``_replay``) and kept; results compare by them."""

    def __init__(self, d: IntMatrix, row_ops: list, col_ops: list, flips: list):
        self.d, self._row_ops, self._col_ops, self._flips = d, row_ops, col_ops, flips

    u = cached_property(lambda self: _replay(self.d.rows, self._row_ops, False))
    u_inverse = cached_property(lambda self: _replay(self.d.rows, self._row_ops, True, (), True))
    v = cached_property(lambda self: _replay(self.d.cols, self._col_ops, False, self._flips, True))
    v_inverse = cached_property(lambda self: _replay(self.d.cols, self._col_ops, True, self._flips))

    def __eq__(self, other) -> bool:
        return isinstance(other, SnfResult) and (self.u, self.d, self.v) == (other.u, other.d, other.v)

    def __hash__(self) -> int:
        return hash((self.u, self.d, self.v))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.data[i][i] for i in range(min(self.d.rows, self.d.cols)))


def _replay(n: int, ops: list, inverse: bool, flips=(), transpose: bool = False) -> IntMatrix:
    """I_n with ops done in order, (i, j, None) a swap and (i, j, q) row_i -=
    q * row_j, or for ``inverse`` row_j += q * row_i; then flips negated.  As
    u = E_N...E_1, (u^-1)^T = E_1^-T...E_N^-T; v^T and v^-1 read alike."""
    rows, span = identity_rows(n), range(n)
    for i, j, q in ops:
        if q is None:
            rows[i], rows[j] = rows[j], rows[i]
            continue
        if inverse:
            i, j, q = j, i, -q
        src, dst = rows[j], rows[i]
        for c in compress(span, src):
            dst[c] -= q * src[c]
    for i in flips:
        rows[i] = [-x for x in rows[i]]
    return IntMatrix._trusted(tuple(zip(*rows)) if transpose else tuple(map(tuple, rows)))


def _min_abs_pivot(a: list[list[int]], t: int, rows: int, cols: int) -> Optional[tuple[int, int]]:
    """Minimal-|entry| nonzero pivot in the trailing submatrix, first hit wins."""
    best = None
    where = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
                if best == 1:
                    return where
    return where


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form, with the operations that give both transforms.

    Pivots are chosen as the minimal-absolute-value nonzero entry with a
    fixed left-to-right scan, so identical inputs always produce identical
    transforms.  Diagonal entries come out nonnegative with each dividing
    the next; the sign is absorbed into ``v``.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.data]
    row_ops, col_ops = [], []

    def to_pivot(t, i, j):
        # swap row i with row t, then column j with column t
        if i != t:
            a[t], a[i] = a[i], a[t]
            row_ops.append((t, i, None))
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            col_ops.append((t, j, None))

    def row_sub(i, j, q):
        # row_i -= q * row_j
        if q:
            ai, aj = a[i], a[j]
            for c in range(cols):
                ai[c] -= q * aj[c]
            row_ops.append((i, j, q))

    def col_sub(i, j, q):
        # col_i -= q * col_j
        if q:
            for row in a:
                row[i] -= q * row[j]
            col_ops.append((i, j, q))

    t = 0
    lim = min(rows, cols)
    while t < lim:
        piv = _min_abs_pivot(a, t, rows, cols)
        if piv is None:
            break
        to_pivot(t, *piv)
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
            leftovers = [i for i in range(t + 1, rows) if a[i][t]] or [
                j for j in range(t + 1, cols) if a[t][j]
            ]
            if not leftovers:
                break
            # a remainder survived; pull the smallest entry back to the pivot
            piv = _min_abs_pivot(a, t, rows, cols)
            to_pivot(t, *piv)
        # pivot now alone in its row and column; enforce divisibility
        p = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    flips = [i for i in range(lim) if a[i][i] < 0]  # a is diagonal now
    for i in flips:
        a[i][i] = -a[i][i]
    return SnfResult(IntMatrix._trusted(tuple(map(tuple, a))), row_ops, col_ops, flips)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    return snf(m).diagonal()


def is_unimodular_set(m: IntMatrix) -> bool:
    """True iff the columns extend to a basis of the ambient lattice.

    Equivalently, all invariant factors of the column matrix are 1 (the
    gcd of the maximal minors is 1).
    """
    if m.cols < 1:
        raise DimensionError("need at least one column")
    if m.cols > m.rows:
        raise DimensionError(f"{m.cols} columns cannot be independent in rank {m.rows}")
    return all(d == 1 for d in invariant_factors(m))


def complete_to_basis(m: IntMatrix) -> IntMatrix:
    """Extend a unimodular column set to a full basis: an n x n matrix g,
    kept with its inverse, whose first ``m.cols`` columns are m's (m itself
    when square).  With ``u*m*v = [I; 0]`` from one ``snf``, the columns of
    ``m*v`` are the first k columns of ``u^-1``, whose trailing columns
    complete them; then u*g = diag(v^-1, I), and ``accept_inverse`` takes
    g^-1 = diag(v, I) * u."""
    n, k = m.rows, m.cols
    res = snf(m)
    if k > n or any(d != 1 for d in res.diagonal()):
        raise NotCompletableError("columns do not form a unimodular set")
    if k == n:
        return m
    out = m.hstack(res.u_inverse.submatrix(0, n, k, n))
    if not accept_inverse(out, IntMatrix.block_diag([res.v, IntMatrix.identity(n - k)]) * res.u):
        raise NotCompletableError("completion failed its inverse check")
    return out
