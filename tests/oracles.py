"""Reference implementations the library no longer needs, kept as test
oracles: the row-reduction inverse that the 2-adic inverse replaced, the
Smith-form solver of ``M x = target``, re-chunking of an eventually
uniform automorphism to a larger block size, and the per-entry integer-list
check that the parser's one-pass type check replaced."""

from typing import Any, Optional, Sequence

from infrank.autrep import EventuallyUniform, _split, invert, window_matrix
from infrank.errors import AlignmentError, DimensionError
from infrank.intmat import IntMatrix, snf


def row_reduction_inverse(m: IntMatrix) -> Optional[IntMatrix]:
    """The integer inverse of m, or None unless m is square and unimodular.

    Row operations on ``[A | I]`` only, so the right half U always satisfies
    ``U * A`` = the left half.  Column t is first reduced by Euclid's
    algorithm over the rows not yet used as pivots, leaving one nonzero entry
    there; earlier columns are already cleared, so the pivots are the
    diagonal of a triangular matrix whose determinant is +-det(A).  A pivot
    other than +-1, or a column with no nonzero entry left, therefore proves
    A is not unimodular.  A +-1 pivot clears its column in every other row
    exactly (Gauss-Jordan), and at the end the left half is I and U = A^-1.
    """
    if not m.is_square:
        return None
    n = m.rows
    rows = [list(row) + [0] * n for row in m.data]
    for i in range(n):
        rows[i][n + i] = 1
    for t in range(n):
        live = [i for i in range(t, n) if rows[i][t]]
        if not live:
            return None
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][t]))
            prow = rows[p]
            pv = prow[t]
            nz = [(c, v) for c, v in enumerate(prow[t:], t) if v]
            rest = []
            for i in live:
                if i != p:
                    row = rows[i]
                    q = row[t] // pv
                    for c, v in nz:
                        row[c] -= q * v
                    if row[t]:
                        rest.append(i)
            rest.append(p)
            live = rest
        p = live[0]
        if rows[p][t] not in (1, -1):
            return None
        if rows[p][t] == -1:
            rows[p] = [-v for v in rows[p]]
        rows[t], rows[p] = rows[p], rows[t]
        nz = [(c, v) for c, v in enumerate(rows[t][t:], t) if v]
        for i in range(n):
            row = rows[i]
            q = row[t]
            if q and i != t:
                for c, v in nz:
                    row[c] -= q * v
    return IntMatrix.from_rows(row[n:] for row in rows)


def solve_columns(m: IntMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer solution x of ``m @ x == target``, or None if there is none."""
    if len(target) != m.rows:
        raise DimensionError("target length does not match row count")
    res = snf(m)
    w = res.u.apply(target)
    diag = res.diagonal()
    y = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % d:
                return None
            if i < m.cols:
                y[i] = w[i] // d
    return res.v.apply(y)


def reblock(aut: EventuallyUniform, new_d: int) -> EventuallyUniform:
    """The same automorphism re-described with blocks of size ``new_d``."""
    if new_d % aut.d:
        raise AlignmentError(f"new block size {new_d} not a multiple of {aut.d}")
    head = aut.window_size + (-aut.window_size) % new_d
    n = head + new_d
    return _split(window_matrix(aut, n), window_matrix(invert(aut), n), head)


def is_int_list(obj: Any) -> bool:
    """A list whose entries are all ints and none a bool, checked entry by entry."""
    return isinstance(obj, list) and not any(
        not isinstance(x, int) or isinstance(x, bool) for x in obj
    )
