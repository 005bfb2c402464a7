import random
import sys
import threading
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infrank import intmat
from infrank.errors import DimensionError, NotCompletableError, ValidationError
from infrank.intmat import (
    IntMatrix,
    complete_to_basis,
    identity_pairs,
    invariant_factors,
    is_unimodular_set,
    snf,
)

import oracles
from helpers import (
    ModCounter,
    ProductCounter,
    assert_passes_validation,
    kernel_rows,
    random_matrix,
    random_unimodular,
)
from oracles import row_reduction_inverse, solve_columns


def minors_gcd_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Independent oracle: d_1 * ... * d_k = gcd of the k x k minors."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m.data[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        if g == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return tuple(out)


def test_snf_diag_2_3():
    # oracle: gcd of entries is 1, determinant is 6, so factors are (1, 6)
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert minors_gcd_invariant_factors(m) == (1, 6)
    res = snf(m)
    assert res.d == IntMatrix.from_rows([[1, 0], [0, 6]])
    assert res.u * m * res.v == res.d


def test_snf_zero_matrix():
    res = snf(IntMatrix.zeros(2, 2))
    assert res.d == IntMatrix.zeros(2, 2)
    assert res.u == IntMatrix.identity(2)
    assert res.v == IntMatrix.identity(2)


def test_snf_unimodular_input():
    res = snf(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert res.d == IntMatrix.identity(2)


def test_snf_round_trip_random():
    rng = random.Random(1)
    for _ in range(120):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        res = snf(m)
        assert res.u * m * res.v == res.d
        assert abs(res.u.det()) == 1
        assert abs(res.v.det()) == 1
        diag = res.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        for i in range(res.d.rows):
            for j in range(res.d.cols):
                if i != j:
                    assert res.d.data[i][j] == 0


def test_snf_matches_minors_oracle():
    rng = random.Random(2)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=9)
        got = tuple(abs(x) for x in invariant_factors(m))
        assert got == minors_gcd_invariant_factors(m)


def test_snf_determinism():
    rng = random.Random(3)
    m = random_matrix(rng, 5, 5)
    first = snf(m)
    again = snf(m)
    assert first == again


def test_unimodular_set_examples():
    assert is_unimodular_set(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert not is_unimodular_set(IntMatrix.from_rows([[2], [0]]))
    # gcd of the three 2x2 minors of {(1,0,0), (0,2,1)} is 1
    cols = IntMatrix.from_rows([[1, 0], [0, 2], [0, 1]])
    assert minors_gcd_invariant_factors(cols) == (1, 1)
    assert is_unimodular_set(cols)


def test_unimodular_set_errors():
    with pytest.raises(DimensionError):
        is_unimodular_set(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(DimensionError):
        is_unimodular_set(IntMatrix.from_rows([[], []]))


def test_complete_to_basis_e2():
    out = complete_to_basis(IntMatrix.from_rows([[0], [1]]))
    assert out.col(0) == (0, 1)
    assert abs(out.det()) == 1


def test_complete_to_basis_rank3():
    cols = IntMatrix.from_rows([[1, 0], [0, 2], [0, 1]])
    out = complete_to_basis(cols)
    assert out.col(0) == (1, 0, 0)
    assert out.col(1) == (0, 2, 1)
    assert out.det() in (1, -1)


def test_complete_to_basis_full_rank_returns_input():
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert complete_to_basis(m) is m


def test_complete_to_basis_rejects_non_unimodular():
    with pytest.raises(NotCompletableError):
        complete_to_basis(IntMatrix.from_rows([[2], [0]]))


def test_complete_to_basis_random():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        u = random_unimodular(rng, n)
        cols = u.submatrix(0, n, 0, k)
        out = complete_to_basis(cols)
        assert out.det() in (1, -1)
        for j in range(k):
            assert out.col(j) == cols.col(j)


def test_unimodular_iff_completable():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        cols = random_matrix(rng, n, rng.randint(1, n), bound=4)
        uni = is_unimodular_set(cols)
        try:
            out = complete_to_basis(cols)
            assert uni and out.det() in (1, -1)
        except NotCompletableError:
            assert not uni


def test_inverse_exact():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n)
        assert m * m.inverse() == IntMatrix.identity(n)
        assert m.inverse() * m == IntMatrix.identity(n)


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse()


BIG = 2**120


@st.composite
def big_unimodular(draw, n):
    """A permuted, sign-flipped product of elementary matrices, one of whose
    multipliers has more than 100 bits."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-BIG, BIG)),
            max_size=10,
        )
    )
    if n > 1:
        ops.append((0, n - 1, draw(st.sampled_from((-1, 1))) * draw(st.integers(2**101, BIG))))
    for i, j, q in ops:
        if i != j:
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return IntMatrix.from_rows([[s * x for x in rows[i]] for i, s in zip(order, signs)])


@st.composite
def unimodular_windows(draw):
    """Dense blocks of dimension 1-8, or block-diagonal windows of up to 72."""
    head = draw(big_unimodular(draw(st.integers(1, 8))))
    if draw(st.booleans()):
        return head
    block = draw(big_unimodular(draw(st.integers(1, 8))))
    reps = draw(st.integers(1, (72 - head.rows) // block.rows))
    return IntMatrix.block_diag([head] + [block] * reps)


@st.composite
def snf_inputs(draw):
    """Rectangular matrices of 0-6 rows and columns, small entries and many
    zeros; in half of them one row is a multiple of another, or one column
    is zero, so that the rank falls short."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if r > 1 and c and draw(st.booleans()):
        i, j, q = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1)), draw(st.integers(-3, 3))
        if draw(st.booleans()):
            rows[i] = [q * x for x in rows[j]]
        else:
            rows = [row[:j % c] + [0] + row[j % c + 1 :] for row in rows]
    return IntMatrix.from_rows(rows)


@settings(max_examples=200)
@given(snf_inputs())
def test_snf_replays_the_eager_transforms(m):
    """u, d and v replayed from the elimination's record equal those of the
    elimination that updated dense u and v at every step (``eager_snf``),
    which pins every byte made from them; u m v = d, and the replayed
    inverses are inverses on both sides."""
    res = snf(m)
    assert (res.u, res.d, res.v) == oracles.eager_snf(m)
    assert res.u * m * res.v == res.d
    for x, x_inv in ((res.u, res.u_inverse), (res.v, res.v_inverse)):
        eye = IntMatrix.identity(x.rows)
        assert x * x_inv == x_inv * x == eye


def test_invariant_factors_build_no_transform(monkeypatch):
    monkeypatch.setattr(intmat, "_replay", None)
    assert invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)


@st.composite
def column_sets(draw):
    """k leading columns of a unimodular n x n matrix, with entries of up to
    121 bits, or k columns of small entries, most not unimodular."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        return draw(big_unimodular(n)).submatrix(0, n, 0, k)
    return IntMatrix.from_rows(draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=n, max_size=n)))


@settings(max_examples=200)
@given(column_sets())
def test_completion_and_its_inverse_match_the_eager_completion(cols):
    """The completion equals the one whose u^-1 was inverted afresh
    (``eager_complete_to_basis``), and the inverse it keeps, diag(v, I) * u,
    equals the 2-adic inverse of the same matrix."""
    want = oracles.eager_complete_to_basis(cols)
    if want is None:
        with pytest.raises(NotCompletableError, match="^columns do not form a unimodular set$"):
            complete_to_basis(cols)
        return
    g = complete_to_basis(cols)
    assert g == want
    if g is not cols:
        assert vars(g)["_inv"] == intmat._unimodular_inverse(IntMatrix(g.data))


@settings(max_examples=150)
@given(st.integers(1, 8).flatmap(big_unimodular), st.data())
def test_a_bumped_inverse_is_refused_and_never_kept(m, data):
    """``accept_inverse`` refuses a true inverse with one entry moved, or one
    of another size, and keeps nothing; it keeps the true one."""
    inv = row_reduction_inverse(m)
    rows = [list(row) for row in inv.data]
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.rows - 1))
    rows[i][j] += data.draw(st.sampled_from([-1, 1, 2, 2**70]))
    fresh = IntMatrix(m.data)
    assert not intmat.accept_inverse(fresh, IntMatrix.from_rows(rows))
    assert not intmat.accept_inverse(fresh, IntMatrix.identity(m.rows + 1))
    assert "_inv" not in vars(fresh)
    assert intmat.accept_inverse(fresh, inv) and fresh.inverse() is inv


@settings(max_examples=60)
@given(unimodular_windows())
def test_inverse_by_row_reduction(m):
    eye = IntMatrix.identity(m.rows)
    inv = m.inverse()
    assert m.is_unimodular()
    assert m * inv == inv * m == eye
    res = snf(m)
    assert inv == res.v * res.u
    assert_passes_validation(inv)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [4, 5, 7]],
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[3, 1], [1, 1]],
        [[1, 1], [1, -1]],
        [[2, 1], [4, 3]],
        [[0, 0], [0, 1]],
        [[1, 5, 0], [0, 1, 0], [7, 35, 2]],
        [[2**130 + 1, 2**130], [2**130, 2**130 - 2]],
        [[2, 1], [1, 2]],
        [[1, 2], [2, 1]],
        # det 2^60 + 1 is 1 modulo 2^k for every k up to 60
        [[2**30, 1], [-1, 2**30]],
    ],
    ids=[
        "non-square",
        "singular",
        "det-0",
        "det-2",
        "det-minus-2",
        "even-first-column",
        "zero-row",
        "late-pivot-2",
        "big-entries",
        "det-3",
        "det-minus-3",
        "det-2-to-60-plus-1",
    ],
)
def test_not_unimodular_has_no_inverse(rows):
    m = IntMatrix.from_rows(rows)
    assert any(m.entries())
    assert not m.is_unimodular()
    if m.is_square:
        assert m.det() not in (1, -1)
    with pytest.raises(ValidationError, match="^matrix is not unimodular; no integer inverse$"):
        m.inverse()


def test_odd_det_refused_by_det_mod_2k(monkeypatch):
    """det 3 is not +-1 mod 2^k, so a dense 12 x 12 block of det 3 is refused
    after one elimination, far below its Hadamard bound.  det 2^60 + 1 is 1
    modulo the first 2^k of a 5 x 5 block (k = 31 + 2 * 3 + 8): that lift
    fails its exact check, k doubles, and det refuses it then.  The 4 x 4
    and the 2 x 2 block are refused by the det of their adjugate, with no
    lift."""
    m = random_unimodular(random.Random(11), 12, steps=80)
    det3 = IntMatrix.from_rows([[3 * x for x in m.data[0]], *m.data[1:]])
    mods = ModCounter(monkeypatch)
    assert not det3.is_unimodular()
    assert len(mods.ks) == 1
    mods.ks.clear()
    odd = IntMatrix.from_rows([[2**30, 1], [-1, 2**30]])
    assert not IntMatrix.block_diag([odd, IntMatrix.identity(3)]).is_unimodular()
    assert mods.ks == [45, 90]
    mods.ks.clear()
    assert not IntMatrix.block_diag([odd, IntMatrix.identity(2)]).is_unimodular()
    assert not odd.is_unimodular()
    assert mods.ks == []


@pytest.mark.parametrize("n, c", [(24, 2), (20, 3), (9, -5), (5, 2**10)])
def test_inverse_past_the_first_modulus(monkeypatch, n, c):
    """I + cN, with N the shift, has an inverse with entries (-c)^(n-1), past
    2^(k-1) for the first k, so its first lift fails the exact check and k
    doubles once."""
    m = IntMatrix.from_rows(
        [[1 if i == j else c if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    )
    mods = ModCounter(monkeypatch)
    inv = m.inverse()
    assert len(mods.ks) == 2 and mods.ks[1] == 2 * mods.ks[0]
    assert inv == row_reduction_inverse(m)
    assert inv.data[0][n - 1] == (-c) ** (n - 1)


@st.composite
def inverse_inputs(draw):
    """Unimodular windows with rows and columns shuffled; the same with one
    row scaled by 0, by an even factor or by an odd one other than +-1; one
    with a block of det 2^60 + 1 among its blocks; I + cN; and small dense
    and non-square matrices, unimodular or not."""
    kinds = ("window", "scaled", "odd-det-block", "shift", "dense", "non-square")
    kind = draw(st.sampled_from(kinds))
    if kind in ("dense", "non-square"):
        r = draw(st.integers(1, 5))
        c = r if kind == "dense" else draw(st.integers(1, 5).filter(lambda c: c != r))
        row = st.lists(st.integers(-9, 9), min_size=c, max_size=c)
        return IntMatrix.from_rows(draw(st.lists(row, min_size=r, max_size=r)))
    if kind == "shift":
        n, c = draw(st.integers(2, 30)), draw(st.sampled_from((2, 3, -3, 5)))
        rows = [[1 if i == j else c if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    else:
        m = draw(unimodular_windows())
        if kind == "odd-det-block":
            m = IntMatrix.block_diag([IntMatrix.from_rows([[2**30, 1], [-1, 2**30]]), m])
        rows = [list(row) for row in m.data]
        if kind == "scaled":
            f = draw(st.sampled_from((0, 2, -2, 3, -3, 2**64 + 1, -(2**300) - 1)))
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = [f * x for x in rows[i]]
    order = draw(st.permutations(range(len(rows))))
    cols = draw(st.permutations(range(len(rows))))
    return IntMatrix.from_rows([[rows[i][j] for j in cols] for i in order])


def _window(n, entries):
    """The n x n identity with the given {(i, j): value} entries set."""
    return IntMatrix.from_rows(
        [[entries.get((i, j), int(i == j)) for j in range(n)] for i in range(n)]
    )


@settings(max_examples=150)
@given(inverse_inputs())
# a 1 x 1 block of 3
@example(_window(9, {(4, 4): 3}))
# blocks of 2 rows and 1 column and of 1 row and 2 columns
@example(_window(9, {(0, 1): 0, (1, 1): 0, (1, 0): 1, (2, 1): 1}))
def test_inverse_matches_row_reduction(m):
    """The 2-adic inverse and the row-reduction oracle give the same matrix,
    or both None."""
    inv = intmat._unimodular_inverse(m)
    assert inv == row_reduction_inverse(m)
    assert m.is_unimodular() == (inv is not None)


@st.composite
def two_by_two(draw):
    """[[1, 0], [x, 1]] [[1, y], [0, 1]] diag(1, det) [[1, z], [0, 1]] with
    det in {0, +-1, +-2, 2^60 + 1}, one more row operation and the rows
    perhaps swapped, or four free entries: entries of up to 400 bits."""
    if draw(st.booleans()):
        entries = [draw(st.integers(-(2**400), 2**400)) for _ in range(4)]
        return IntMatrix.from_rows([entries[:2], entries[2:]])
    bits = st.integers(-(2**110), 2**110)
    det = draw(st.sampled_from([0, 1, -1, 2, -2, 2**60 + 1]))
    x, y, z, w = (draw(bits) for _ in range(4))
    b = [x, x * z + (x * y + 1) * det]
    a = [1 + w * x, z + y * det + w * b[1]]
    return IntMatrix.from_rows([b, a] if draw(st.booleans()) else [a, b])


@settings(max_examples=300)
@given(two_by_two())
# the identity, and a 2 x 2 that is its own inverse
@example(IntMatrix.identity(2))
@example(IntMatrix.from_rows([[0, 1], [1, 0]]))
def test_2x2_inverse_matches_row_reduction(m):
    """The closed-form 2 x 2 inverse and the row-reduction oracle give the
    same matrix, or both None."""
    inv = intmat._unimodular_inverse(m)
    assert inv == row_reduction_inverse(m)
    assert (inv is not None) == (m.det() in (1, -1))


@st.composite
def three_and_four(draw):
    """A 3 x 3 or 4 x 4 L diag(det, 1, ...) U, with L and U unit lower and
    upper triangular, entries of up to 50 bits and det in {0, +-1, +-2,
    2^60 + 1}, its rows permuted: entries of about 100 bits, 160 with
    det 2^60 + 1.  Or free entries of up to 400 bits."""
    n = draw(st.sampled_from((3, 4)))
    if draw(st.booleans()):
        return IntMatrix.from_rows([[draw(st.integers(-(2**400), 2**400)) for _ in range(n)] for _ in range(n)])
    bits = st.integers(-(2**50), 2**50)

    def unit_triangular(below):
        return IntMatrix.from_rows(
            [[draw(bits) if (i > j if below else i < j) else int(i == j) for j in range(n)] for i in range(n)]
        )

    det = draw(st.sampled_from([0, 1, -1, 2, -2, 2**60 + 1]))
    middle = IntMatrix.block_diag([IntMatrix(((det,),)), IntMatrix.identity(n - 1)])
    rows = (unit_triangular(True) * middle * unit_triangular(False)).data
    return IntMatrix.from_rows([rows[i] for i in draw(st.permutations(range(n)))])


@settings(max_examples=300)
@given(three_and_four())
# the identity, and a signed permutation
@example(IntMatrix.identity(3))
@example(IntMatrix.from_rows([[0, 0, -1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]]))
def test_3x3_and_4x4_inverse_is_det_times_the_adjugate(m):
    """The adjugate inverse of a 3 x 3 or 4 x 4 and the row-reduction oracle
    give the same matrix, or both None, None exactly when det is not +-1;
    A times it is I, and no 2-adic lift is made."""
    with pytest.MonkeyPatch.context() as patch:
        mods = ModCounter(patch)
        inv = intmat._unimodular_inverse(m)
    assert inv == row_reduction_inverse(m)
    assert (inv is None) == (m.det() not in (1, -1))
    assert inv is None or intmat.pairs_product(m.pairs, inv.pairs) == identity_pairs(m.rows)
    assert mods.ks == []


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=6)
        b = random_matrix(rng, n, n, bound=6)
        assert (a * b).det() == a.det() * b.det()


def test_solve_columns():
    rng = random.Random(8)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=6)
        x = [rng.randint(-4, 4) for _ in range(cols)]
        target = m.apply(x)
        sol = solve_columns(m, target)
        assert sol is not None
        assert m.apply(sol) == target
    assert solve_columns(IntMatrix.from_rows([[2], [0]]), (1, 0)) is None


def test_power_and_negative_power():
    m = IntMatrix.from_rows([[1, 3], [0, 1]])
    assert m.power(4) == IntMatrix.from_rows([[1, 12], [0, 1]])
    assert m.power(-2) == IntMatrix.from_rows([[1, -6], [0, 1]])
    assert m.power(0) == IntMatrix.identity(2)


def test_matrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValidationError):
        IntMatrix((((1.5,),)))  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix.from_rows([[1.5]]),
        lambda: IntMatrix.from_rows([[True]]),
        lambda: IntMatrix(((2, True),)),
    ],
    ids=["float-row", "bool-row", "bool-literal"],
)
def test_builders_refuse_non_integers(build):
    with pytest.raises(ValidationError):
        build()


def test_internal_results_pass_validation():
    rng = random.Random(21)
    for _ in range(30):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, n)
        c = random_matrix(rng, n, k)
        results = [
            a * b,
            a + c,
            a - c,
            a.scale(-1),
            a.scale(rng.randint(-5, 5)),
            oracles.transpose(a),
            a.hstack(c),
            a.submatrix(0, n, 0, 1),
            IntMatrix.identity(n),
            IntMatrix.zeros(n, k),
            IntMatrix.block_diag([a, b, c]),
            random_unimodular(rng, n).power(rng.randint(-6, 9)),
        ]
        u = random_unimodular(rng, n)
        results += [u.inverse(), IntMatrix.from_pairs((a * b).pairs, n)]
        res = snf(a)
        results += [res.u, res.d, res.v]
        for r in results:
            assert_passes_validation(r)
            assert r.pairs == intmat.row_pairs(r.data)


def test_kept_pairs_and_inverse_leave_eq_hash_and_repr():
    """What a matrix keeps is no field: reading its pairs or its inverse
    changes neither ``==``, ``hash`` nor ``repr``, and a second read gives
    the value the first one kept."""
    rng = random.Random(24)
    for n in range(6):
        m = IntMatrix(random_unimodular(rng, n, steps=20).data)
        twin = IntMatrix(m.data)
        before = (repr(m), hash(m))
        pairs, inverse = m.pairs, m.inverse()
        assert (repr(m), hash(m)) == before == (repr(twin), hash(twin))
        assert m == twin and twin == m and {m: 1}[twin] == 1
        assert m.pairs is pairs and m.inverse() is inverse and m.is_unimodular()
        assert inverse == row_reduction_inverse(twin)
        assert vars(m).get("_inv") is not m  # a 0 x 0 or 1 x 1 matrix is its own inverse


@pytest.mark.parametrize("first", ["is_unimodular", "inverse"])
def test_a_singular_matrix_runs_one_elimination(monkeypatch, first):
    """Whichever of ``is_unimodular`` and ``inverse`` comes first, a
    singular matrix is eliminated once, and ``inverse`` raises as before."""
    calls = []
    orig = intmat._unimodular_inverse
    monkeypatch.setattr(intmat, "_unimodular_inverse", lambda m: calls.append(m) or orig(m))
    m = IntMatrix.from_rows([[2, 1, 0], [0, 1, 0], [4, 3, 1]])
    order = [first] + [name for name in ("is_unimodular", "inverse") if name != first]
    refusal = "^matrix is not unimodular; no integer inverse$"
    for name in order * 2:
        if name == "inverse":
            with pytest.raises(ValidationError, match=refusal):
                m.inverse()
        else:
            assert m.is_unimodular() is False
    assert calls == [m]


def test_threads_read_one_fresh_matrix_alike():
    """Eight threads, more than the cores, that read the pairs and the
    inverse of one fresh 60 x 60 matrix at once, with thread switches forced
    often, get equal values: the ones a single reader gets."""
    base = random_unimodular(random.Random(60), 60, steps=400)
    m = IntMatrix(base.data)
    gate = threading.Barrier(8)
    got = [None] * 8

    def read(i):
        gate.wait(timeout=60)
        got[i] = (m.pairs, m.inverse())

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    alone = IntMatrix(base.data)
    assert all(g == (alone.pairs, alone.inverse()) for g in got)
    assert (m.pairs, m.inverse()) == got[0] and m.inverse() * m == IntMatrix.identity(60)


def test_power_product_count(monkeypatch):
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    products = ProductCounter(monkeypatch)
    for e in (0, 1):
        assert m.power(e) == IntMatrix.from_rows([[1, e], [0, 1]])
        assert products.count == 0
    for e in range(2, 41):
        products.count = 0
        assert m.power(e) == IntMatrix.from_rows([[1, e], [0, 1]])
        assert products.count == e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1]],
        [[-1]],
        [[0]],
        [[1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[0, 1], [1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0, 5], [0, 1, 5]],  # one 1 and n - 1 zeros per row, but not square
        [[1, 0], [0, 1], [0, 0]],
    ],
)
def test_is_identity_reads_the_entries(rows):
    m = IntMatrix.from_rows(rows)
    assert m.is_identity() == (m.is_square and m == IntMatrix.identity(m.rows))


@st.composite
def sparse_matrices(draw, rows, cols):
    """rows x cols with a drawn share of nonzero entries, from 0 to 100 %:
    +-1, small and over 64 bits."""
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() >= density:
            return 0
        big = rng.randint(2**64, 2**80) * rng.choice([1, -1])
        return rng.choice([1, -1, rng.choice([-3, -2, 2, 5]), big])

    return IntMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=200)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.data())
def test_product_matches_triple_loop(r, k, c, data):
    a = data.draw(sparse_matrices(r, k))
    # a matrix with no rows has no columns either
    b = data.draw(sparse_matrices(a.cols, c))
    want = tuple(
        tuple(sum(a.data[i][t] * b.data[t][j] for t in range(a.cols)) for j in range(b.cols))
        for i in range(a.rows)
    )
    assert (a * b).data == want


def _pairs_product(a, b, cols):
    """The product kernel on a and b made dense, after checking that each of
    its rows holds exactly the nonzero entries, in column order."""
    rows = intmat.pairs_product(intmat.row_pairs(a), intmat.row_pairs(b))
    dense = [list(row) for row in IntMatrix.from_pairs(rows, cols).data]
    assert rows == intmat.row_pairs(dense)
    return dense


@st.composite
def wide_sparse_rows(draw, rows, cols):
    """rows x cols with up to three entries per row, each +-1 or 2, in the
    first two columns or the last: wide and sparse, so the kernel gathers
    most rows in its dict, and entries that meet often cancel."""
    spots = sorted({0, 1, cols - 1} & set(range(cols)))
    out = []
    for _ in range(rows):
        row = [0] * cols
        for c in draw(st.lists(st.sampled_from(spots), max_size=3)) if spots else ():
            row[c] += draw(st.sampled_from([1, -1, 2]))
        out.append(tuple(row))
    return out


@settings(max_examples=300)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.data())
def test_product_kernel_matches_the_entry_walk(r, k, c, data):
    """The row-by-row kernel over b's nonzero pairs gives the rows the
    entry-by-entry walk gives."""
    a = data.draw(kernel_rows(r, k))
    b = data.draw(kernel_rows(k, c))
    assert _pairs_product(a, b, c) == list(oracles.product_rows(a, b, c))


@settings(max_examples=300)
@given(st.integers(0, 9), st.integers(0, 40), st.integers(0, 40), st.data())
def test_product_kernel_on_wide_sparse_rows(r, k, c, data):
    """Rows that cancel in the dict accumulator drop their zero entries, as
    rows read back from a dense accumulator do."""
    a = data.draw(wide_sparse_rows(r, k))
    b = data.draw(wide_sparse_rows(k, c))
    assert _pairs_product(a, b, c) == list(oracles.product_rows(a, b, c))


@st.composite
def near_identity(draw, n):
    """An n x n permutation matrix, or the identity with one entry set to 2:
    b whose rows hold one term each, or one row two, but that is not I."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return [tuple(int(j == perm[i]) for j in range(n)) for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return [tuple(2 if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)]


@settings(max_examples=200)
@given(st.integers(0, 9), st.integers(1, 9), st.data())
def test_product_by_the_identity_is_the_other_factor(r, n, data):
    """a * I is a itself; a permutation b, or the identity with one entry
    set to 2, gives the rows the entry-by-entry walk gives."""
    a = data.draw(kernel_rows(r, n))
    pairs = intmat.row_pairs(a)
    assert intmat.pairs_product(pairs, identity_pairs(n)) is pairs
    b = data.draw(near_identity(n))
    assert _pairs_product(a, b, n) == list(oracles.product_rows(a, b, n))


@st.composite
def inverse_kernel_inputs(draw):
    """Square matrices of every ``kernel_rows`` kind and every square
    ``inverse_inputs`` matrix, with a modulus exponent from 1 to 90 bits or
    the one ``_unimodular_inverse`` starts from."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        a = draw(kernel_rows(n, n))
    else:
        a = list(draw(inverse_inputs().filter(lambda m: m.is_square)).data)
    start = max(abs(x) for row in a for x in row).bit_length() + 2 * len(a).bit_length() + 8
    return a, draw(st.one_of(st.integers(1, 90), st.just(start)))


@settings(max_examples=300)
@given(inverse_kernel_inputs())
def test_inverse_kernel_matches_the_dense_elimination(case):
    """The 2-adic inverse that visits only nonzero entries gives the rows of
    the one that scans them all, or None where it does, and its pairs are
    the nonzero entries of those rows."""
    a, k = case
    got, want = intmat._inverse_mod_2k(a, k), oracles.inverse_mod_2k(a, k)
    if want is None:
        assert got is None
    else:
        rows, pairs = got
        assert rows == want
        assert pairs == intmat.row_pairs(rows)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1)])
def test_kernels_on_edge_shapes(shape):
    """0 x 0, n x 0 and 1 x 1: products, text and str as before."""
    r, c = shape
    for value in (0, 1, -1, 5, 2**400):
        rows = [tuple(value for _ in range(c)) for _ in range(r)]
        m = IntMatrix.from_rows(rows)
        # an n x 0 matrix times the 0 x n shape that has no rows
        t = oracles.transpose(m).data
        assert _pairs_product(rows, t, r) == list(oracles.product_rows(rows, t, r))
        assert str(m) == oracles.matrix_str(m)
    if r == c:
        a = [(1,)] * r
        assert intmat._inverse_mod_2k(a, 8) == ([[1]] * r, (((0, 1),),) * r)


@settings(max_examples=200)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_str_converts_each_entry_once(r, c, data):
    """``str`` is the two-pass text of before, with one ``str`` per entry."""
    m = IntMatrix.from_rows(data.draw(kernel_rows(r, c)) if r else [])
    assert str(m) == oracles.matrix_str(m)


def test_str_text_is_pinned():
    assert str(IntMatrix.from_rows([[1, -20, 0], [300, 0, 7]])) == "  1 -20 0\n300   0 7"
    assert str(IntMatrix.from_rows([[], []])) == "\n"
    assert str(IntMatrix.from_rows([])) == "[]"


def test_str_of_an_entry_past_4300_digits_raises_as_before():
    m = IntMatrix.from_rows([[1, 0], [0, 10**4400]])
    with pytest.raises(ValueError) as new:
        str(m)
    with pytest.raises(ValueError) as old:
        oracles.matrix_str(m)
    assert str(new.value) == str(old.value)
