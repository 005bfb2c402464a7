"""Finitely-describable automorphisms of the infinite-rank free abelian group.

Three representation classes are supported:

* ``Finitary``      -- acts by a unimodular matrix on finitely many listed
                       coordinates and fixes everything else;
* ``EventuallyUniform`` -- acts by an arbitrary unimodular matrix on a finite
                       initial window and then repeats one unimodular block
                       forever (window size 0 gives a fully uniform block
                       automorphism);
* ``GradedBlock``   -- acts on coordinate pairs (x_n, y_n) = (2n, 2n+1) by
                       x_n -> x_n + (m_0 m_1 ... m_n) y_n, where the
                       multipliers start with a finite prefix and continue
                       through the increasing primes outside an exclusion
                       set (each tail prime used once).

Every atom carries its inverse witness from construction, so
"automorphism" is enforced rather than assumed.  The one exception is a
claimed value (``claimed=True``): the ``target_aut`` of a parsed identity
claim, a parsed chain's ``final``, or the targets psi and phi_n and the
``final`` that the general pipeline walks from the chain's words
(``words._Rows``).  It is only compared by its windows, so it is built with
no inverse (its inverse fields are None); ``window_pairs``,
``head_and_period`` and ``core_window`` read it, and ``invert`` and
``compose`` refuse it.  The verifier proves it unimodular instead: a
verified identity on a window that holds a whole block, or the chain links.
One rule, ``from_window``, reads a product of atoms back from its window
H + L, for ``compose`` (an atom, given the inverse's window) and for the
pipeline's claimed values alike.  Windows are built as row pairs
(``window_pairs``), straight from each class's structure, and follow the
column convention of :mod:`infrank.intmat`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import AlignmentError, CompositionUnsupportedError, ValidationError
from .intmat import (
    IntMatrix,
    Pairs,
    identity_pairs,
    pairs_product,
)
from .numth import factorize, is_prime, primes_after


@dataclass(frozen=True)
class BlockSpec:
    """A unimodular block together with its inverse (None in a claimed value)."""

    matrix: IntMatrix
    inverse: Optional[IntMatrix] = field(compare=False)

    @property
    def d(self) -> int:
        return self.matrix.rows


def block_spec(matrix: IntMatrix, claimed: bool = False) -> BlockSpec:
    if not matrix.is_square:
        raise ValidationError("block matrix must be square")
    if matrix.rows == 0:
        raise ValidationError("block dimension must be positive")
    return BlockSpec(matrix, _witness(matrix, "block", claimed))


def _witness(matrix: IntMatrix, what: str, claimed: bool) -> Optional[IntMatrix]:
    """The inverse of matrix, None for a claimed value; ``ValidationError``
    if an atom's matrix is not unimodular; one the matrix keeps is used."""
    if claimed:
        return None
    inverse = matrix._inverse()
    if inverse is None:
        raise ValidationError(f"{what} matrix is not unimodular")
    return inverse


@dataclass(frozen=True)
class Finitary:
    support: tuple[int, ...]
    matrix: IntMatrix
    inverse: Optional[IntMatrix] = field(compare=False)

    @property
    def max_support(self) -> int:
        return self.support[-1] if self.support else -1


@dataclass(frozen=True)
class EventuallyUniform:
    window: IntMatrix
    window_inverse: Optional[IntMatrix] = field(compare=False)
    block: BlockSpec = field(compare=True)

    @property
    def window_size(self) -> int:
        return self.window.rows

    @property
    def d(self) -> int:
        return self.block.d


@dataclass(frozen=True)
class GradedBlock:
    prefix: tuple[int, ...]
    excluded: frozenset[int]
    negated: bool = False
    # |c_0|, |c_1|, ... as far as read (``_increments``), shared with the inverse
    _table: list = field(default_factory=lambda: [()], compare=False, repr=False)

    def prefix_exponents(self) -> dict[int, int]:
        """Prime exponents of m_0 m_1 ... m_{k-1} for the k prefix multipliers."""
        return dict(self._factored[0])

    def tail_skip(self) -> frozenset[int]:
        """Primes the tail enumeration must not use.

        The tail enumerates fresh primes: anything in the exclusion set or
        already dividing a prefix multiplier is skipped, so every tail
        prime contributes exponent exactly one over the whole family.
        """
        return self._factored[1]

    @cached_property
    def _factored(self) -> tuple[dict[int, int], frozenset[int]]:
        """``prefix_exponents()`` and ``tail_skip()``, from the one place the
        prefix is factorized, each distinct multiplier once per block."""
        exps: dict[int, int] = {}
        factored: dict[int, dict[int, int]] = {}
        for m in self.prefix:
            if m not in factored:
                factored[m] = factorize(m)
            for p, e in factored[m].items():
                exps[p] = exps.get(p, 0) + e
        return exps, self.excluded.union(exps)

    def _increments(self, k: int) -> tuple[int, ...]:
        """|c_0|, |c_1|, ..., at least k of them, from the block's table.  A
        short table grows by a longer tuple swapped in whole, so a reader on
        another thread sees the old table or the new one, never a part."""
        table = self._table[0]
        j = len(table)
        if j >= k:
            return table
        rest = self.prefix[j:k]
        if len(rest) < k - j:
            # then the primes outside ``tail_skip()`` past the last one walked, c_{j-1} / c_{j-2}
            last = table[-1] // (table[-2] if j > 1 else 1) if j > len(self.prefix) else 1
            tail = (p for p in primes_after(last) if p not in self.tail_skip())
            rest = chain(rest, islice(tail, k - j - len(rest)))
        table += tuple(accumulate(rest, mul, initial=table[-1] if j else 1))[1:]
        self._table[0] = table
        return table

    def multiplier(self, n: int) -> int:
        return abs(self.increment(n)) // (abs(self.increment(n - 1)) if n else 1)

    def increment(self, n: int) -> int:
        """Shear coefficient of pair n >= 0: +-(m_0 m_1 ... m_n)."""
        if n < 0:
            raise ValueError(f"pair index {n} is negative")
        c = self._increments(n + 1)[n]
        return -c if self.negated else c


RepAut = Finitary | EventuallyUniform | GradedBlock


# -- constructors -------------------------------------------------------


def finitary(support, matrix: IntMatrix, claimed: bool = False) -> Finitary:
    """Finitary automorphism; coordinates where it acts trivially are pruned."""
    sup = tuple(support)
    if len(set(sup)) != len(sup):
        raise ValidationError("support indices must be distinct")
    if any(i < 0 for i in sup):
        raise ValidationError("support indices must be nonnegative")
    if matrix.rows != len(sup) or matrix.cols != len(sup):
        raise ValidationError("support size and matrix size disagree")
    moved = set(_moved(matrix))
    keep = [a for a in sorted(range(len(sup)), key=sup.__getitem__) if a in moved]
    if keep != list(range(len(sup))):
        sup, matrix = tuple(sup[a] for a in keep), _principal(matrix, keep)
    return Finitary(sup, matrix, _witness(matrix, "finitary", claimed))


def _moved(matrix: IntMatrix) -> list[int]:
    """The indices whose row or column is not the identity's.  Pruning the
    others splits off an identity summand, of the inverse too."""
    n, data = matrix.rows, matrix.data
    return [
        a for a in range(n) if any(data[a][b] != (a == b) or data[b][a] != (a == b) for b in range(n))
    ]


def _principal(matrix: IntMatrix, keep: Sequence[int]) -> IntMatrix:
    return IntMatrix.from_rows([[matrix.data[a][b] for b in keep] for a in keep])


def identity_aut() -> Finitary:
    return finitary((), IntMatrix.from_rows([]))


def uniform(block_matrix: IntMatrix) -> EventuallyUniform:
    """Block automorphism repeating one block from coordinate 0 on."""
    return eventually_uniform(IntMatrix.from_rows([]), block_matrix)


def eventually_uniform(
    window: IntMatrix, block_matrix: IntMatrix, claimed: bool = False
) -> EventuallyUniform:
    blk = block_spec(block_matrix, claimed)
    if not window.is_square:
        raise ValidationError("window must be square")
    if window.rows % blk.d:
        raise AlignmentError(
            f"window size {window.rows} is not a multiple of block dimension {blk.d}"
        )
    window = _absorb_trailing_blocks(window, blk.matrix)
    return EventuallyUniform(window, _witness(window, "window", claimed), blk)


def _absorb_trailing_blocks(window: IntMatrix, block: IntMatrix) -> IntMatrix:
    """Canonical form: drop trailing window blocks that already repeat the block."""
    rest = window.rows - block.rows
    while rest >= 0 and window.submatrix(rest, window.rows, rest, window.rows) == block:
        if window != IntMatrix.block_diag([window.top_left(rest), block]):
            break
        window, rest = window.top_left(rest), rest - block.rows
    return window


def graded(prefix, excluded, negated: bool = False) -> GradedBlock:
    pre = tuple(int(m) for m in prefix)
    if any(m < 2 for m in pre):
        raise ValidationError("graded multipliers must all be >= 2")
    exc = frozenset(int(p) for p in excluded)
    for p in exc:
        if not is_prime(p):
            raise ValidationError(f"exclusion set entry {p} is not prime")
    return GradedBlock(pre, exc, negated)


def is_claimed(aut: RepAut) -> bool:
    """Whether aut is a claimed value, built with no inverse witness."""
    if isinstance(aut, Finitary):
        return aut.inverse is None
    return isinstance(aut, EventuallyUniform) and aut.window_inverse is None


def witnessed(aut: RepAut) -> RepAut:
    """aut as an atom: a claimed value rebuilt with its inverse witness,
    ``ValidationError`` if it is not unimodular; an atom as it is."""
    if not is_claimed(aut):
        return aut
    if isinstance(aut, Finitary):
        return finitary(aut.support, aut.matrix)
    return eventually_uniform(aut.window, aut.block.matrix)


def _refuse_claimed(*auts: RepAut) -> None:
    if any(map(is_claimed, auts)):
        raise CompositionUnsupportedError(
            "a claimed value carries no inverse witness and is only compared by "
            "its windows; rebuild it with witnessed() to invert or compose it"
        )


def is_identity(aut: RepAut) -> bool:
    if isinstance(aut, Finitary):
        return not aut.support
    if isinstance(aut, EventuallyUniform):
        return aut.window.is_identity() and aut.block.matrix.is_identity()
    return False


# -- window evaluation ---------------------------------------------------


def _check_window(aut: RepAut, n: int) -> None:
    """Raise ``AlignmentError`` unless n is a valid window size for ``aut``."""
    if n < 0:
        raise AlignmentError("window size must be nonnegative")
    if isinstance(aut, Finitary):
        if n <= aut.max_support:
            raise AlignmentError(
                f"window {n} does not cover finitary support up to {aut.max_support}"
            )
    elif isinstance(aut, EventuallyUniform):
        n0, d = aut.window_size, aut.d
        if n < n0 or (n - n0) % d:
            raise AlignmentError(f"window {n} misaligned for window {n0} + blocks of {d}")
    elif n % 2:
        raise AlignmentError("graded windows must be even")


def head_and_period(auts: Sequence[RepAut]) -> Optional[tuple[int, int]]:
    """(H, L) for atoms that are each a head followed by one repeated block,
    or None.

    A finitary atom is its first max_support + 1 coordinates followed by the
    identity, an eventually uniform one its head window followed by blocks
    of d.  L is the lcm of the block sizes (0 when no atom repeats a block)
    and H the least multiple of L covering every head.  Window H + kL of
    each atom, and so of every product of them, is its window H followed by
    k copies of one L x L block.  Graded atoms and heads that are not whole
    blocks give None.
    """
    heads, blocks = [], []
    for a in auts:
        if isinstance(a, Finitary):
            heads.append(a.max_support + 1)
        elif isinstance(a, EventuallyUniform) and a.window_size % a.d == 0:
            heads.append(a.window_size)
            blocks.append(a.d)
        else:
            return None
    period = lcm(*blocks) if blocks else 0
    top = max(heads, default=0)
    return top + (-top) % (period or 1), period


def core_window(split: Optional[tuple[int, int]], n: int) -> Optional[tuple[int, int]]:
    """The window that window n of every word over atoms whose
    ``head_and_period`` is ``split`` reduces to, and the period of the
    blocks past it, or None.

    With (H, L) = ``split``, the core is H + L, or H itself when n = H or
    L = 0.  So two such words agree, or a power of one is the identity, on
    window n exactly when they do on the core window, and the first entry
    where they differ lies in it.  Atoms without a split (``split`` None),
    and any other n, give None.
    """
    if split is None or n <= 0:
        return None
    head, period = split
    if n < head or (n - head) % (period or 1):
        return None
    return (head + period if n > head else head), period


def window_pairs(aut: RepAut, n: int) -> Pairs:
    """The row pairs (``intmat.Pairs``) of ``aut`` restricted to the first
    n coordinates, read off its structure: a finitary atom's support rows
    among identity rows, an eventually uniform one's head rows followed by
    its block rows shifted along the diagonal, and a graded one's pairs,
    each an identity row and a row with one subdiagonal entry.

    All three classes map the coordinates below an aligned n into
    coordinates below n, and the others into the others: the matrix is
    block diagonal at n.  So the restriction is well defined and unimodular,
    and window n of a product of such atoms is the first n rows of any
    larger window on which they are all aligned (``words.verify_certificate``
    cuts windows so).
    """
    _check_window(aut, n)
    if isinstance(aut, Finitary):
        rows = list(identity_pairs(n))
        for i, local in zip(aut.support, aut.matrix.pairs):
            rows[i] = tuple([(aut.support[b], v) for b, v in local])
        return tuple(rows)
    if isinstance(aut, EventuallyUniform):
        rows = list(aut.window.pairs)
        block = aut.block.matrix.pairs
        for s in range(aut.window_size, n, aut.d):
            rows += [tuple([(c + s, v) for c, v in row]) for row in block] if s else block
        return tuple(rows)
    rows = []
    for x, c in enumerate(aut._increments(n // 2)[: n // 2]):
        rows += ((2 * x, 1),), ((2 * x, -c if aut.negated else c), (2 * x + 1, 1))
    return tuple(rows)


def window_matrix(aut: RepAut, n: int) -> IntMatrix:
    """The n x n matrix of ``aut`` restricted to the first n coordinates:
    ``window_pairs`` made dense."""
    return IntMatrix.from_pairs(window_pairs(aut, n), n)


def nonzero_blocks(vector: Sequence[int], start: int, d: int) -> Iterable[int]:
    """Starts of the d-sized chunks of ``vector`` from ``start`` on that hold
    a nonzero coordinate, in order."""
    nonzero = compress(range(start, len(vector)), islice(vector, start, None))
    return dict.fromkeys(i - (i - start) % d for i in nonzero)


# -- group operations ----------------------------------------------------


def invert(aut: RepAut) -> RepAut:
    _refuse_claimed(aut)
    if isinstance(aut, Finitary):
        return Finitary(aut.support, aut.inverse, aut.matrix)
    if isinstance(aut, EventuallyUniform):
        return EventuallyUniform(
            aut.window_inverse, aut.window, BlockSpec(aut.block.inverse, aut.block.matrix)
        )
    return GradedBlock(aut.prefix, aut.excluded, not aut.negated, aut._table)


def from_window(rows: Pairs, split: tuple[int, int], inverse: Optional[Pairs] = None) -> RepAut:
    """The automorphism whose window H + L, for (H, L) = ``split`` of
    ``head_and_period``, has the row pairs ``rows``: window H followed by
    copies of the last L x L block, in canonical form, or a finitary atom on
    ``range(H)`` when L = 0 or it is the identity.  The one place a product
    of atoms is read back, by ``compose`` and ``witness._walked``.  With
    ``inverse``, the rows of the inverse's window H + L, it is an atom whose
    witnesses are the same parts of that window (dropped blocks and pruned
    coordinates split off a summand), so nothing is inverted again; without
    it, a claimed value.
    """
    head, period = split
    n = head + period
    w = IntMatrix.from_pairs(rows, n)
    w_inv = None if inverse is None else IntMatrix.from_pairs(inverse, n)

    def part(m: Optional[IntMatrix], lo: int, hi: int) -> Optional[IntMatrix]:
        return None if m is None else m.submatrix(lo, hi, lo, hi)

    if period:
        block = w.submatrix(head, n, head, n)
        window = _absorb_trailing_blocks(w.top_left(head), block)
        if window.rows or not block.is_identity():
            inv = part(w_inv, 0, window.rows)
            return EventuallyUniform(window, inv, BlockSpec(block, part(w_inv, head, n)))
    keep = _moved(w)
    inv = None if w_inv is None else _principal(w_inv, keep)
    return Finitary(tuple(keep), _principal(w, keep), inv)


def compose(a: RepAut, b: RepAut) -> RepAut:
    """Symbolic product: window(compose(a, b), n) == window(a, n) * window(b, n).

    Read back by ``from_window`` from the product on window H + L, with the
    inverse b^-1 a^-1 from the factors' witnesses.  A graded factor composes
    only with the identity and its own inverse; other pairs raise
    ``CompositionUnsupportedError`` -- callers needing only finite data
    should evaluate windows instead, as they must for a claimed value.
    """
    _refuse_claimed(a, b)
    if is_identity(a):
        return identity_aut() if is_identity(b) else b
    if is_identity(b):
        return a
    split = head_and_period((a, b))
    if split is None:
        if invert(a) == b:
            return identity_aut()
        raise CompositionUnsupportedError(
            "graded representations compose symbolically only with the identity "
            "and with their own inverse; evaluate windows instead"
        )
    n = sum(split)

    def window(x: RepAut, y: RepAut) -> Pairs:
        return pairs_product(window_pairs(x, n), window_pairs(y, n))

    return from_window(window(a, b), split, window(invert(b), invert(a)))
