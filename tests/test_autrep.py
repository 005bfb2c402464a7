import random
import sys
import threading
from itertools import accumulate
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrank.autrep import (
    EventuallyUniform,
    Finitary,
    block_spec,
    compose,
    core_window,
    eventually_uniform,
    finitary,
    from_window,
    graded,
    head_and_period,
    identity_aut,
    invert,
    is_claimed,
    is_identity,
    uniform,
    window_matrix,
    window_pairs,
    witnessed,
)
from infrank.errors import AlignmentError, CompositionUnsupportedError, ValidationError
from infrank.intmat import IntMatrix
from infrank.witness import tau_power

from infrank.words import Named, Product

from oracles import dense_window, evaluate_word, reblock, row_reduction_inverse, sieve_multipliers
from helpers import (
    ProductCounter,
    assert_passes_validation,
    finitary_or_uniform,
    random_unimodular,
    unimodular,
)


def test_tau_window():
    tau = tau_power(1)
    assert window_matrix(tau, 4) == IntMatrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    )


def test_graded_window():
    g = graded((2, 3), ())
    w = window_matrix(g, 4)
    # x_0 -> x_0 + 2 y_0 and x_1 -> x_1 + 6 y_1, columns are images
    assert w.col(0) == (1, 2, 0, 0)
    assert w.col(1) == (0, 1, 0, 0)
    assert w.col(2) == (0, 0, 1, 6)
    assert w.col(3) == (0, 0, 0, 1)


def test_finitary_window():
    f = finitary((0,), IntMatrix.from_rows([[-1]]))
    assert window_matrix(f, 3) == IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_window_alignment_errors():
    with pytest.raises(AlignmentError):
        window_matrix(tau_power(1), 3)
    with pytest.raises(AlignmentError):
        window_matrix(graded((2,), ()), 5)
    with pytest.raises(AlignmentError):
        window_matrix(finitary((4,), IntMatrix.from_rows([[-1]])), 4)


def test_unimodularity_enforced():
    block, window, fin = (
        f"^{kind} matrix is not unimodular$" for kind in ("block", "window", "finitary")
    )
    with pytest.raises(ValidationError, match=block):
        uniform(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ValidationError, match=block):
        block_spec(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValidationError, match=block):
        eventually_uniform(IntMatrix.identity(2), IntMatrix.from_rows([[2, 1], [1, 2]]))
    with pytest.raises(ValidationError, match=window):
        eventually_uniform(IntMatrix.from_rows([[3, 0], [0, 1]]), IntMatrix.identity(2))
    with pytest.raises(ValidationError, match=window):
        eventually_uniform(
            IntMatrix.from_rows([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            IntMatrix.identity(2),
        )
    with pytest.raises(ValidationError, match=fin):
        finitary((0, 1), IntMatrix.from_rows([[1, 0], [0, 2]]))
    with pytest.raises(ValidationError, match=fin):
        finitary((4, 0, 2), IntMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
    with pytest.raises(ValidationError):
        graded((1,), ())
    with pytest.raises(ValidationError):
        graded((2,), (4,))


def test_graded_tail_rule():
    g = graded((2, 3), ())
    assert [g.multiplier(i) for i in range(5)] == [2, 3, 5, 7, 11]
    assert [g.increment(i) for i in range(4)] == [2, 6, 30, 210]
    h = graded((3,), ())
    assert [h.multiplier(i) for i in range(4)] == [3, 2, 5, 7]
    e = graded((), (7,))
    assert [e.multiplier(i) for i in range(5)] == [2, 3, 5, 11, 13]
    for aut in (g, invert(g)):  # a grown table is not read from its end
        for read in (aut.increment, aut.multiplier):
            with pytest.raises(ValueError, match="^pair index -1 is negative$"):
                read(-1)


@pytest.mark.parametrize(
    "prefix,excluded",
    [((), ()), ((2, 3), ()), ((6, 10), (7,)), ((4, 9, 25), (2, 11)), ((12,), (13,))],
)
def test_graded_multipliers_match_sieve(prefix, excluded):
    mults = sieve_multipliers(prefix, excluded, 120)
    incs = list(accumulate(mults, mul))
    g = graded(prefix, excluded)
    neg = graded(prefix, excluded, negated=True)
    assert [g.multiplier(i) for i in range(120)] == mults
    assert [g.increment(i) for i in range(120)] == incs
    assert [neg.increment(i) for i in range(120)] == [-c for c in incs]
    for aut, sign in ((g, 1), (neg, -1)):
        w = window_matrix(aut, 240)
        assert [w.data[2 * i + 1][2 * i] for i in range(120)] == [sign * c for c in incs]


def test_graded_window_walks_the_primes_once(monkeypatch):
    """Primes below 1849 come from the table; past it, a block and its
    inverse walk them once between them."""
    import infrank.numth as numth

    calls = 0
    orig = numth.next_prime

    def counting(n):
        nonlocal calls
        calls += 1
        return orig(n)

    monkeypatch.setattr(numth, "next_prime", counting)
    for g in (graded((), ()), graded((6, 10), (7,)), graded((4, 9, 25), (2, 11))):
        for n in (2, 60, 200):
            window_matrix(g, n)
        assert calls == 0
        window_matrix(g, 800)
        assert 0 < calls <= 400 + len(g.tail_skip())
        calls = 0
        window_matrix(invert(g), 800)
        window_matrix(g, 600)
        assert calls == 0


# pairs read: the tail passes 1847, the last prime of ``numth``'s table, near pair 283
EDGE = 300


@pytest.mark.parametrize(
    "prefix,excluded",
    [((), ()), ((), (1847,)), ((1847,), (2, 1861)), ((6, 1849), (1847, 1871)), ((3698,), ())],
)
@pytest.mark.parametrize("grown", [0, 1, 2, 282, 283, 290])
def test_increments_match_the_sieve_across_the_table_edge(prefix, excluded, grown):
    """A block and its inverse read their shared table after it was grown to
    ``grown`` increments: a window across the table edge, then every
    increment and multiplier; a fresh block grows it one multiplier at a
    time.  All agree with the trial-division sieve."""
    mults = sieve_multipliers(prefix, excluded, EDGE)
    incs = list(accumulate(mults, mul))
    g = graded(prefix, excluded)
    if grown:
        assert g.increment(grown - 1) == incs[grown - 1]
    n = 2 * EDGE
    for aut, sign in ((invert(g), -1), (g, 1)):
        rows = window_pairs(aut, n)
        assert rows[::2] == tuple(((2 * i, 1),) for i in range(EDGE))
        assert rows[1::2] == tuple(((2 * i, sign * c), (2 * i + 1, 1)) for i, c in enumerate(incs))
        assert [aut.increment(i) for i in range(EDGE)] == [sign * c for c in incs]
        assert [aut.multiplier(i) for i in range(EDGE)] == mults
    fresh = graded(prefix, excluded)
    assert [fresh.multiplier(i) for i in range(EDGE)] == mults


def test_threads_growing_one_table_read_the_sieve():
    """Four threads, with a switch interval of a microsecond, grow one
    block's table at once, through the block and its inverse, each reading
    in its own order: every read matches the sieve, and the table left is a
    prefix of the increments."""
    g = graded((2, 3), (11,))
    incs = list(accumulate(sieve_multipliers((2, 3), (11,), 400), mul))
    orders = [range(400), range(399, -1, -1), range(0, 400, 7), [399, *range(400)]]
    reads = [None] * len(orders)
    barrier = threading.Barrier(len(orders))

    def read(slot):
        aut = invert(g) if slot % 2 else g
        barrier.wait(timeout=30)
        reads[slot] = [abs(aut.increment(k)) for k in orders[slot]]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(len(orders))]
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
    assert reads == [[incs[k] for k in order] for order in orders]
    table = g._table[0]
    assert list(table) == incs[: len(table)]


def test_prefix_exponents_factorize_each_distinct_multiplier_once(monkeypatch):
    import infrank.autrep as autrep

    factorized = []
    orig = autrep.factorize

    def recording(n):
        factorized.append(n)
        return orig(n)

    monkeypatch.setattr(autrep, "factorize", recording)
    exps = graded((10, 6, 10, 9, 6, 10), ()).prefix_exponents()
    # keys in order of first appearance along the prefix, as a walk over every copy gives
    assert list(exps.items()) == [(2, 5), (5, 3), (3, 4)]
    assert factorized == [10, 6, 9]


def test_a_block_factorizes_its_prefix_once(monkeypatch):
    import infrank.autrep as autrep
    from infrank.classify import RuleBased

    factorized = []
    orig = autrep.factorize
    monkeypatch.setattr(autrep, "factorize", lambda n: factorized.append(n) or orig(n))
    s = (10**9 + 7) * (10**9 + 9)
    g = graded((s,) * 40, ())
    assert {g.multiplier(45) for _ in range(10)} == {13}
    assert g.increment(40) == s**40 * 2
    assert RuleBased(g).exponent_cap()(10**9 + 7) == 40
    exps = g.prefix_exponents()
    exps.clear()
    assert g.prefix_exponents() == {10**9 + 7: 40, 10**9 + 9: 40}
    assert g.tail_skip() == {10**9 + 7, 10**9 + 9}
    assert factorized == [s]


def test_window_coherence():
    rng = random.Random(10)
    samples = [
        tau_power(2),
        uniform(random_unimodular(rng, 3)),
        eventually_uniform(random_unimodular(rng, 4), random_unimodular(rng, 2)),
        graded((2, 3), (5,)),
        graded((), (3,), negated=True),
        finitary((0, 3), random_unimodular(rng, 2)),
    ]
    for aut in samples:
        if isinstance(aut, EventuallyUniform):
            base = max(aut.window_size, aut.d) or aut.d
        elif isinstance(aut, Finitary):
            base = aut.max_support + 1
        else:
            base = 2
        n1 = base + (-base) % 6  # multiple of 6 covers d in {1,2,3} and parity
        n1 = max(n1, 6)
        n2 = 2 * n1
        small = window_matrix(aut, n1)
        big = window_matrix(aut, n2)
        assert big.top_left(n1) == small
        assert big.det() in (1, -1)


def test_compose_uniform_squares():
    t2 = compose(tau_power(1), tau_power(1))
    assert isinstance(t2, EventuallyUniform)
    assert t2.window_size == 0
    assert t2.block.matrix == IntMatrix.from_rows([[1, 2], [0, 1]])


def test_compose_finitary_with_uniform():
    sw = finitary((0, 1), IntMatrix.from_rows([[0, 1], [1, 0]]))
    tau = tau_power(1)
    c = compose(sw, tau)
    assert isinstance(c, EventuallyUniform)
    assert c.window_size == 2
    assert c.window == IntMatrix.from_rows([[0, 1], [1, 0]]) * tau.block.matrix
    assert c.block.matrix == tau.block.matrix
    for n in (2, 4, 8):
        assert window_matrix(c, n) == window_matrix(sw, n) * window_matrix(tau, n)


def test_compose_inverse_is_identity():
    rng = random.Random(11)
    samples = [
        tau_power(3),
        uniform(random_unimodular(rng, 2)),
        finitary((1, 2), random_unimodular(rng, 2)),
        graded((2,), ()),
    ]
    for aut in samples:
        assert is_identity(compose(aut, invert(aut)))
        assert is_identity(compose(invert(aut), aut))


def test_compose_homomorphism_random():
    rng = random.Random(12)
    for _ in range(30):
        kind = rng.randrange(3)
        a = uniform(random_unimodular(rng, rng.choice([1, 2, 3])))
        if kind == 0:
            b = uniform(random_unimodular(rng, rng.choice([1, 2, 3])))
        elif kind == 1:
            b = finitary((0, 2), random_unimodular(rng, 2))
        else:
            b = eventually_uniform(random_unimodular(rng, 2), random_unimodular(rng, 2))
        c = compose(a, b)
        n = 12
        assert window_matrix(c, n) == window_matrix(a, n) * window_matrix(b, n)
        assert window_matrix(c, 2 * n) == window_matrix(a, 2 * n) * window_matrix(b, 2 * n)


def test_compose_finitary_pair_stays_finitary():
    rng = random.Random(13)
    a = finitary((0, 1), random_unimodular(rng, 2))
    b = finitary((1, 5), random_unimodular(rng, 2))
    c = compose(a, b)
    assert isinstance(c, Finitary)
    for n in (6, 12):
        assert window_matrix(c, n) == window_matrix(a, n) * window_matrix(b, n)


def test_graded_composition_rules():
    g = graded((2, 3), (5,))
    assert is_identity(compose(g, invert(g)))
    assert compose(g, identity_aut()) == g
    with pytest.raises(CompositionUnsupportedError):
        compose(g, g)
    with pytest.raises(CompositionUnsupportedError):
        compose(g, graded((2,), (5,)))
    with pytest.raises(CompositionUnsupportedError):
        compose(g, tau_power(2))
    with pytest.raises(CompositionUnsupportedError):
        compose(g, finitary((0,), IntMatrix.from_rows([[-1]])))


def test_invert_examples():
    assert invert(tau_power(1)).block.matrix == IntMatrix.from_rows([[1, -1], [0, 1]])
    f = finitary((2,), IntMatrix.from_rows([[-1]]))
    assert invert(f).matrix == IntMatrix.from_rows([[-1]])
    g = graded((2, 3), ())
    gi = invert(g)
    assert gi.negated
    assert window_matrix(g, 4) * window_matrix(gi, 4) == IntMatrix.identity(4)


@settings(max_examples=80)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3), st.data())
def test_reblock_with_window(d, heads, times, data):
    aut = eventually_uniform(data.draw(unimodular(d * heads)), data.draw(unimodular(d)))
    new_d = times * d
    big = reblock(aut, new_d)
    assert big.d == new_d
    head = big.window_size
    for n in (head + new_d, head + 3 * new_d):
        assert window_matrix(big, n) == window_matrix(aut, n)
    assert big.window_inverse == big.window.inverse()
    assert big.block.inverse == big.block.matrix.inverse()
    assert big == eventually_uniform(big.window, big.block.matrix)


def test_finitary_pruning():
    m = IntMatrix.from_rows([[1, 0], [0, -1]])
    f = finitary((0, 5), m)
    assert f.support == (5,)
    assert f.matrix == IntMatrix.from_rows([[-1]])
    assert is_identity(finitary((1, 2), IntMatrix.identity(2)))


@settings(max_examples=80)
@given(finitary_or_uniform(), finitary_or_uniform())
def test_compose_carries_inverses(a, b):
    c = compose(a, b)
    for n in (12, 24):  # aligned for every block size 1..3, past every window and support
        assert window_matrix(c, n) == window_matrix(a, n) * window_matrix(b, n)
    if isinstance(c, EventuallyUniform):
        assert c == eventually_uniform(c.window, c.block.matrix)
        if c.window_size:
            assert c.window_inverse == c.window.inverse()
        assert c.block.inverse == c.block.matrix.inverse()
    elif c.support:
        assert c.inverse == c.matrix.inverse()
    assert is_identity(compose(c, invert(c)))


@settings(max_examples=80)
@given(finitary_or_uniform(), finitary_or_uniform())
def test_one_rule_reads_compose_and_claimed_values(a, b):
    """``from_window`` of the product's window H + L, given no inverse, is a
    claimed value; witnessed, it is ``compose(a, b)``, unless a factor is the
    identity, which ``compose`` returns the other factor for, on its own
    blocks.  Both agree with the dense product at H + L and H + 2L."""
    split = head_and_period((a, b))
    head, period = split
    word, env = Product((Named("a"), Named("b"))), {"a": a, "b": b}
    claimed = from_window(evaluate_word(word, env, head + period).pairs, split)
    assert is_claimed(claimed)
    c = compose(a, b)
    if not (is_identity(a) or is_identity(b)):
        assert witnessed(claimed) == c
    for n in (head + period, head + 2 * period):
        want = evaluate_word(word, env, n)
        assert dense_window(claimed, n) == want and dense_window(c, n) == want


@settings(max_examples=100)
@given(finitary_or_uniform(max_dim=4))
def test_invert_round_trips(a):
    inv = invert(a)
    assert invert(inv) == a
    assert compose(a, inv) == identity_aut()
    head, period = head_and_period([a])
    for n in (head, head + period, head + 2 * period):
        assert window_matrix(inv, n) == row_reduction_inverse(window_matrix(a, n))


def test_compose_of_head_free_atoms_makes_two_products(monkeypatch):
    rng = random.Random(31)
    for da, db in ((2, 2), (2, 3), (4, 6), (1, 5)):
        # negated, so neither factor is the identity
        a, b = (uniform(random_unimodular(rng, d).scale(-1)) for d in (da, db))
        products = ProductCounter(monkeypatch)
        c = compose(a, b)
        assert products.count == 2
        d = lcm(da, db)
        assert c.window_size == 0 and c.d == d
        assert c.block.matrix == window_matrix(a, d) * window_matrix(b, d)
        assert c.block.inverse == c.block.matrix.inverse()
        # what the headed path builds from window d: the same absorbed form
        assert c == eventually_uniform(window_matrix(c, d), c.block.matrix)


U2 = uniform(IntMatrix.from_rows([[1, 1], [0, 1]]))
U3 = uniform(IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
HEADED = eventually_uniform(IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[1]]))
HEADED_PAIR = eventually_uniform(
    IntMatrix.from_rows([[-1, 0], [0, 1]]), IntMatrix.from_rows([[0, 1], [1, 0]])
)
# built past validation: a head of one coordinate before blocks of 2
HEAD_OFF_BLOCKS = EventuallyUniform(
    IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[-1]]), U2.block
)
F2 = finitary((0, 1), IntMatrix.from_rows([[0, 1], [1, 0]]))
F5 = finitary((2, 4), IntMatrix.from_rows([[1, 2], [0, 1]]))


@pytest.mark.parametrize(
    "auts, n, core",
    [
        ((U2, U3), 6, 6),
        ((U2, U3), 12, 6),
        ((U2, U3, U2), 30, 6),
        ((U2, U3), 4, None),  # misaligned for U3
        ((U2,), 0, None),  # window 0 has no reduction
        ((U2, HEADED), 4, 4),  # head 1 rounded up to the period 2, then one period
        ((U2, F2), 4, 4),  # the support 2 as a head of one period, then one period
        ((U2, graded((), ())), 4, None),
        ((F2,), 2, 2),
        ((F2, F5), 5, 5),
        ((F2, F5), 200000, 5),
        ((F2, F5), 4, None),  # does not cover the support
        ((identity_aut(),), 3, 0),
        ((F2,), 0, None),
        ((), 4, 0),
        ((U2, HEADED), 2, 2),  # the head window alone
        ((U2, HEADED), 3, None),  # misaligned
        ((U2, HEADED), 200000, 4),
        ((HEADED,), 1, 1),
        ((HEADED,), 7, 2),
        ((U3, HEADED_PAIR), 6, 6),  # head 2 rounded up to the period 6
        ((U3, HEADED_PAIR), 18, 12),
        ((U3, HEADED_PAIR), 4, None),  # aligned for the head, short of the period
        ((HEADED, F2), 4, 3),  # a head and a finitary atom: the support 2, then one period
        ((HEADED, graded((), ())), 4, None),
        ((HEAD_OFF_BLOCKS,), 4, None),  # a head that is not whole blocks
        ((U3, F5), 200001, 9),  # the support 5 rounded up to the period 3, then one period
        ((U3, F5), 3, None),  # short of the support
    ],
)
def test_core_window(auts, n, core):
    blocks = [a.d for a in auts if isinstance(a, EventuallyUniform)]
    period = lcm(*blocks) if blocks else 0  # finitary atoms repeat the identity
    assert core_window(head_and_period(auts), n) == (None if core is None else (core, period))


@pytest.mark.parametrize(
    "a, b, size",
    [
        (HEADED_PAIR, U3, 12),  # head 2 rounded up to the period 6, then one period
        (U3, HEADED_PAIR, 12),
        (F5, U2, 8),  # the support 5 rounded up to the period 2, then one period
        (U3, F5, 9),
        (HEADED, U2, 4),
        (HEADED_PAIR, F2, 4),
        # the finitary atom turns the head into one more block, which is absorbed
        (HEADED_PAIR, finitary((0, 1), IntMatrix.from_rows([[0, -1], [1, 0]])), 4),
    ],
    ids=["headed-uniform", "uniform-headed", "finitary-uniform", "uniform-finitary",
         "head-of-one", "headed-finitary", "head-absorbed"],
)
def test_compose_of_headed_atoms_makes_two_products(monkeypatch, a, b, size):
    head, period = head_and_period((a, b))
    assert head + period == size
    products = ProductCounter(monkeypatch)
    c = compose(a, b)
    assert (products.count, products.largest) == (2, size)
    assert c == eventually_uniform(c.window, c.block.matrix)
    assert c.window_inverse == c.window.inverse()
    for n in (size, size + period, size + 3 * period):
        assert window_matrix(c, n) == window_matrix(a, n) * window_matrix(b, n)


def test_compose_returns_the_canonical_identity():
    eye = uniform(IntMatrix.identity(2))
    for a, b in ((eye, invert(eye)), (eye, eye), (identity_aut(), eye), (eye, identity_aut())):
        assert compose(a, b) == identity_aut()


def test_windows_pass_validation():
    rng = random.Random(22)
    auts = [
        graded((2, 3), (5,)),
        graded((4,), (), negated=True),
        finitary((1, 4), random_unimodular(rng, 2)),
        eventually_uniform(random_unimodular(rng, 2), random_unimodular(rng, 2)),
        reblock(uniform(random_unimodular(rng, 2)), 4),
    ]
    for aut in auts:
        for n in (8, 16):
            assert_passes_validation(window_matrix(aut, n))
