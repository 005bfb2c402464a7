import json
import random
from copy import deepcopy
from dataclasses import replace
from functools import reduce
from math import lcm
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrank import words as words_module
from infrank.autrep import (
    BlockSpec,
    EventuallyUniform,
    Finitary,
    eventually_uniform,
    finitary,
    graded,
    head_and_period,
    identity_aut,
    uniform,
)
from infrank.errors import (
    AlignmentError,
    CompositionUnsupportedError,
    DimensionError,
    InfrankError,
    ValidationError,
    WordError,
)
from infrank.intmat import IntMatrix
from infrank.serialize import parse_certificate, parse_word, serialize_certificate, serialize_word
from infrank.witness import order_n_shear, tau_power
from infrank.words import (
    ACTION_ON_VECTOR,
    ORDER,
    WINDOW_IDENTITY,
    WINDOW_SUM,
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    VerifyResult,
    _Rows,
    evaluate_word,
    holds_on_every_window,
    push_word,
    verify_certificate,
    word_names,
)

import oracles
from helpers import (
    EXPONENTS,
    ProductCounter,
    finitary_or_uniform,
    one_atom_per_class,
    random_unimodular,
    unimodular,
    words,
)


TAU = tau_power(1)
SWAP = finitary((0, 1), IntMatrix.from_rows([[0, 1], [1, 0]]))
ENV = {"tau": TAU, "sigma": SWAP}


def test_power_zero_is_identity():
    assert evaluate_word(Power(Named("tau"), 0), ENV, 4) == IntMatrix.identity(4)


def test_conj_example():
    got = evaluate_word(Conj(Named("tau"), Named("sigma")), ENV, 2)
    assert got == IntMatrix.from_rows([[1, 0], [1, 1]])


def test_product_with_inverse_cancels():
    w = Product((Named("tau"), Inverse(Named("tau"))))
    assert evaluate_word(w, ENV, 4) == IntMatrix.identity(4)


def test_unresolved_name():
    with pytest.raises(WordError):
        evaluate_word(Named("missing"), ENV, 4)


def test_reassociation_invariance():
    rng = random.Random(20)
    env = {
        "a": uniform(random_unimodular(rng, 2)),
        "b": finitary((0, 1), random_unimodular(rng, 2)),
        "c": uniform(random_unimodular(rng, 2)),
    }
    flat = Product((Named("a"), Named("b"), Named("c")))
    left = Product((Product((Named("a"), Named("b"))), Named("c")))
    right = Product((Named("a"), Product((Named("b"), Named("c")))))
    for n in (4, 8):
        m = evaluate_word(flat, env, n)
        assert evaluate_word(left, env, n) == m
        assert evaluate_word(right, env, n) == m


def test_inverse_of_compound_tokens():
    rng = random.Random(21)
    env = {
        "a": uniform(random_unimodular(rng, 2)),
        "h": finitary((0, 1), random_unimodular(rng, 2)),
    }
    words = [
        Inverse(Product((Named("a"), Named("h")))),
        Inverse(Conj(Named("a"), Named("h"))),
        Inverse(Power(Named("a"), 3)),
        Power(Named("a"), -2),
    ]
    for w in words:
        got = evaluate_word(w, env, 8)
        direct = evaluate_word(_strip_inverse(w), env, 8)
        assert got * direct == IntMatrix.identity(8)


def _strip_inverse(w):
    if isinstance(w, Inverse):
        return w.inner
    assert isinstance(w, Power) and w.exponent < 0
    return Power(w.inner, -w.exponent)


def test_graded_atoms_in_words():
    env = {"g": graded((2, 3), ())}
    got = evaluate_word(Product((Named("g"), Inverse(Named("g")))), env, 8)
    assert got == IntMatrix.identity(8)


# -- certificates -----------------------------------------------------------


def test_window_identity_certificate_true():
    cert = Certificate(
        kind=WINDOW_IDENTITY,
        windows=(4,),
        environment=ENV,
        word=Product((Named("tau"), Inverse(Named("tau")))),
        target_aut=finitary((), IntMatrix.from_rows([])),
    )
    assert verify_certificate(cert).ok


def test_window_identity_certificate_false_names_entry():
    cert = Certificate(
        kind=WINDOW_IDENTITY,
        windows=(2,),
        environment=ENV,
        word=Named("tau"),
        target_aut=finitary((), IntMatrix.from_rows([])),
    )
    res = verify_certificate(cert)
    assert not res.ok
    assert "(0,1)" in res.report[0]


def test_order_certificate():
    triple = order_n_shear(3, 5)
    gamma = finitary(tuple(range(4)), triple.gamma)
    cert = Certificate(
        kind=ORDER,
        windows=(4,),
        environment={"gamma": gamma},
        word=Named("gamma"),
        order=3,
    )
    assert verify_certificate(cert).ok
    wrong = Certificate(
        kind=ORDER,
        windows=(4,),
        environment={"gamma": gamma},
        word=Named("gamma"),
        order=6,
    )
    assert not verify_certificate(wrong).ok


def test_action_certificate():
    cert = Certificate(
        kind=ACTION_ON_VECTOR,
        windows=(2, 4),
        environment=ENV,
        word=Named("tau"),
        vector=(0, 1),
        target_vector=(1, 1),
    )
    assert verify_certificate(cert).ok
    bad = Certificate(
        kind=ACTION_ON_VECTOR,
        windows=(2,),
        environment=ENV,
        word=Named("tau"),
        vector=(0, 1),
        target_vector=(0, 1),
    )
    res = verify_certificate(bad)
    assert not res.ok and "coordinate 0" in res.report[0]


def test_certificate_requires_window():
    with pytest.raises(ValidationError):
        Certificate(kind=WINDOW_IDENTITY, windows=())


def test_certificate_unknown_kind():
    with pytest.raises(ValidationError):
        Certificate(kind="bogus", windows=(2,))


def test_tau_times_inverse_identity_certificate():
    env = {"tau": TAU}
    cert = Certificate(
        kind=WINDOW_IDENTITY,
        windows=(4,),
        environment=env,
        word=Product((Named("tau"), Inverse(Named("tau")))),
        target_aut=finitary((), IntMatrix.from_rows([])),
    )
    assert verify_certificate(cert).ok


def test_window_matrices_unimodular():
    rng = random.Random(22)
    env = {
        "a": uniform(random_unimodular(rng, 2)),
        "g": graded((2,), (3,)),
    }
    w = Product((Conj(Named("a"), Named("g")), Power(Named("a"), 2)))
    for n in (4, 8):
        assert evaluate_word(w, env, n).det() in (1, -1)


def test_product_of_k_atoms_makes_k_minus_1_products(monkeypatch):
    rng = random.Random(23)
    env = {f"a{i}": uniform(random_unimodular(rng, 2)) for i in range(6)}
    products = ProductCounter(monkeypatch)
    for k in range(1, 7):
        word = Product(tuple(Named(f"a{i}") for i in range(k)))
        for inverted in (word, Inverse(word)):
            products.count = 0
            evaluate_word(inverted, env, 4)
            assert products.count == k - 1
    products.count = 0
    assert evaluate_word(Product(()), env, 4) == IntMatrix.identity(4)
    assert products.count == 0


def test_a_graded_inverse_pair_on_two_windows_makes_one_product(monkeypatch):
    """g g^-1 on windows 100 and 200 is walked once, on 200, and window 100
    is cut from it.  The count went from 1 to 0 when letters on equal names
    came to merge as on one token object: the two ``Named("g")`` objects
    name one atom, so the word reduces to the identity with no product."""
    cert = Certificate(kind=WINDOW_IDENTITY, windows=(100, 200),
                       environment={"g": graded((2, 3), (11,))},
                       word=Product((Named("g"), Inverse(Named("g")))), target_aut=identity_aut())
    products = ProductCounter(monkeypatch)
    assert verify_certificate(cert) == VerifyResult(
        True, ("window 100: identity holds", "window 200: identity holds"))
    assert products.count == 0


# -- the walk's reading rules: free reduction and core windows ----------------


A = Named("a")
UNIT_SHEAR = uniform(IntMatrix.from_rows([[1, 1], [0, 1]]))
CLAIMED_SHEAR = eventually_uniform(IntMatrix.from_rows([]), IntMatrix.from_rows([[1, 1], [0, 1]]),
                                   claimed=True)
C = Named("c")
REFUSED = ("a claimed value carries no inverse witness and is only compared by its windows; "
           "rebuild it with witnessed() to invert or compose it")


class Unknown:
    """A token of no known kind."""


# each word's first error, as the tree reading (``oracles.tree_rows``) raises
# it: a name that cancels in a a^-1, the same a misaligned on window 3, and a
# conjugator read before the conjugated (both missing); a claimed conjugator,
# whose inverse the tree reads before the missing conjugated; a claimed c in
# c c^-1; a missing name before an unknown token in a product inside a
# product; and the same defects under a power or an inverse, whose tokens the
# one reading reads as letters: (a a^-1)^2 with a missing and misaligned, an
# inverted c c^-1, an inverted conjugate, and a conjugate to the 0, which
# free reduction drops whole, but whose claimed conjugator the tree inverts
FIRST_ERRORS = [
    ("missing", Product((A, Inverse(A))), {}, 2, WordError, "unresolved name 'a'"),
    ("misaligned", Product((A, Inverse(A))), {"a": UNIT_SHEAR}, 3, AlignmentError,
     "window 3 misaligned for window 0 + blocks of 2"),
    ("conjugator", Product((Conj(Named("x"), Named("b")), Named("x"))), {}, 2, WordError,
     "unresolved name 'b'"),
    ("claimed-conjugator", Conj(Named("x"), C), {"c": CLAIMED_SHEAR}, 2,
     CompositionUnsupportedError, REFUSED),
    ("claimed-cancelling", Product((C, Inverse(C))), {"c": CLAIMED_SHEAR}, 2,
     CompositionUnsupportedError, REFUSED),
    ("unknown", Product((Product((Named("m"), Unknown())), A)), {"a": UNIT_SHEAR}, 2, WordError,
     "unresolved name 'm'"),
    ("power-missing", Power(Product((A, Inverse(A))), 2), {}, 2, WordError, "unresolved name 'a'"),
    ("power-misaligned", Power(Product((A, Inverse(A))), 2), {"a": UNIT_SHEAR}, 3, AlignmentError,
     "window 3 misaligned for window 0 + blocks of 2"),
    ("inverse-claimed-cancelling", Inverse(Product((C, Inverse(C)))), {"c": CLAIMED_SHEAR}, 2,
     CompositionUnsupportedError, REFUSED),
    ("inverted-conjugate", Power(Conj(Named("x"), Named("b")), -1), {}, 2, WordError,
     "unresolved name 'b'"),
    ("claimed-conjugator-power-0", Power(Conj(Named("x"), C), 0), {"c": CLAIMED_SHEAR}, 2,
     CompositionUnsupportedError, REFUSED),
]


@pytest.mark.parametrize(
    "word, env, n, error, text", [c[1:] for c in FIRST_ERRORS], ids=[c[0] for c in FIRST_ERRORS]
)
def test_cancelling_words_keep_their_first_error(word, env, n, error, text):
    cert = Certificate(kind=WINDOW_IDENTITY, windows=(n,), environment=env, word=word,
                       target_aut=identity_aut())
    assert _outcome(lambda: evaluate_word(word, env, n)) == (error, text)
    assert _outcome(lambda: verify_certificate(cert)) == (error, text)
    assert _tree_outcome(lambda: evaluate_word(word, env, n)) == (error, text)


def test_word_names_reads_each_token_once(monkeypatch):
    """``word_names`` visits each distinct token object once and keeps its
    names outside the fields, so ``==``, ``hash`` and ``repr`` do not move;
    an unknown token raises as the tree walk meets it, and a product that
    holds one keeps nothing."""
    a = Product((Named("f"), Power(Named("g"), 3)))
    word = Conj(a, Product((a, Inverse(a))))
    twin = deepcopy(word)
    calls = []
    read = words_module.word_names
    monkeypatch.setattr(words_module, "word_names", lambda t: calls.append(t) or read(t))
    assert words_module.word_names(word) == {"f", "g"}
    # word, a (then f, g^3, g), the conjugator, a again, a^-1 and a again:
    # 15 visits without the kept names
    assert len(calls) == 9
    calls.clear()
    assert words_module.word_names(word) == {"f", "g"} and len(calls) == 1
    assert (word == twin, hash(word), repr(word)) == (True, hash(twin), repr(twin))
    bad = Product((Named("f"), Conj(Unknown(), Named("x")), Unknown()))
    with pytest.raises(WordError, match="^unknown token"):
        read(bad)
    # f was read before the conjugate, whose conjugator x was never reached
    assert "_names" not in vars(bad) and "_names" not in vars(bad.factors[1].h)
    assert "_names" in vars(bad.factors[0])


def test_conjugation_step_words_are_read_free_reduced(monkeypatch):
    """prod_j Conj(psi, lam^j), j = 1..3, is read as lam psi lam psi lam psi
    lam^-3: six joins and the two products of one cube, where the tree
    makes six for the conjugates, two joins and six for lam^2, lam^3 and
    their inverses."""
    rng = random.Random(30)
    env = {"psi": uniform(random_unimodular(rng, 2)), "lam": uniform(random_unimodular(rng, 2))}
    lam = Named("lam")
    word = Product(tuple(Conj(Named("psi"), Power(lam, j)) for j in (1, 2, 3)))
    products = ProductCounter(monkeypatch)
    got = evaluate_word(word, env, 2)
    assert products.count == 8
    assert got == oracles.evaluate_word(word, env, 2)


@st.composite
def cancelling_words(draw, names):
    """A word whose letters cancel or merge: one drawn token t used twice
    or more, as t t^-1, as powers of it, as the conjugator of adjacent
    conjugates, or inverted and not, wrapped as it is, inverted, powered or
    between two other words."""
    inner = words(depth=2, names=names, exponents=st.integers(-2, 2))
    t, u, v = draw(inner), draw(inner), draw(inner)
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    word = draw(st.sampled_from([
        Product((t, Inverse(t))),
        Product((Power(t, a), Power(Power(t, b), -1), Power(t, b))),
        Product((Conj(u, Power(t, a)), Conj(v, Power(t, b)))),
        Product((u, Power(Inverse(t), a), Power(t, a), v)),
        Conj(Product((Inverse(t), u)), t),
        Product((Inverse(Conj(u, t)), Conj(v, t))),
    ]))
    wrap = draw(st.sampled_from([
        lambda w: w, Inverse, lambda w: Power(w, a or 2), lambda w: Product((u, w, t)),
    ]))
    return wrap(word)


@st.composite
def mixed_env_and_word(draw):
    """Atoms of mixed heads and blocks of 1-4, with or without a graded
    atom, a cancelling word over them, and windows H + L, H + 2L and H + 3L
    of their ``head_and_period`` (H, H + 1, H + 2 when L = 0), the even
    ones only, or 2 (H + L), with a graded atom."""
    env = {name: draw(finitary_or_uniform(max_dim=4)) for name in "abc"}
    head, period = head_and_period(list(env.values()))
    windows = [head + k * period for k in (1, 2, 3)] if period else [head, head + 1, head + 2]
    if draw(st.booleans()):
        env["g"] = graded(draw(st.lists(st.integers(2, 9), max_size=2)),
                          draw(st.sets(st.sampled_from([2, 3, 5]))), draw(st.booleans()))
        windows = [n for n in windows if n % 2 == 0] or [2 * (head + period)]
    return env, draw(cancelling_words(tuple(env))), windows


def _tree_outcome(fn):
    """What ``fn`` gives when every walk reads by the tree: the reference
    ``oracles.tree_rows`` patched in for ``_Rows.walk``, holding its rows in
    the walk's memo, where a certificate's check may seed them."""
    def tree_walk(self, word, inv=False):
        return oracles.tree_rows(word, self.env, self.n, inv, self.memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Rows, "walk", tree_walk)
        return _outcome(fn)


@settings(max_examples=100, deadline=None)
@given(mixed_env_and_word(), st.data())
def test_reading_rules_match_the_dense_evaluation(drawn, data):
    """Free-reduced and core-window readings, on one walk per window and on
    one family of walks, give the dense window; identity and order claims
    give the report lines of the tree reading (``_tree_outcome``)."""
    env, word, windows = drawn
    walks = {}
    for n in windows:
        want = oracles.evaluate_word(word, env, n)
        assert IntMatrix.from_pairs(_Rows(env, n).walk(word), n) == want
        assert IntMatrix.from_pairs(words_module._walk(walks, env, n).walk(deepcopy(word)), n) == want
    dense = oracles.evaluate_word(word, env, windows[0])
    i, j = data.draw(st.integers(0, max(windows[0] - 1, 0))), data.draw(st.integers(-1, 1))
    bumped = [list(row) for row in dense.data]
    if bumped:
        bumped[i][i] += j
    claims = [
        {"kind": WINDOW_IDENTITY, "target_matrix": IntMatrix.from_rows(bumped)},
        {"kind": WINDOW_IDENTITY, "target_aut": data.draw(st.sampled_from(list(env.values())))},
        {"kind": ORDER, "order": data.draw(st.sampled_from([1, 2, 3, 4, 6]))},
    ]
    for fields in claims:
        cert = Certificate(windows=tuple(windows), environment=env, word=word, **fields)
        assert _outcome(lambda: verify_certificate(cert)) == _tree_outcome(
            lambda: verify_certificate(cert))


def _claimed(aut):
    """aut rebuilt as a claimed value, with no inverse witness."""
    if isinstance(aut, Finitary):
        return finitary(aut.support, aut.matrix, claimed=True)
    return eventually_uniform(aut.window, aut.block.matrix, claimed=True)


@st.composite
def defective_env_and_word(draw):
    """A drawn word, cancelling or not, over its atoms, on one window, with
    one defect drawn: a name of the word dropped from the env, an atom of
    it swapped for its claimed value, or the window moved by one, which
    misaligns it for a graded atom or for blocks of more than one."""
    if draw(st.booleans()):
        env, word, windows = draw(mixed_env_and_word())
        n = draw(st.sampled_from(windows))
    else:
        env, word, n = draw(one_atom_per_class()), draw(WORDS), draw(st.sampled_from([12, 24]))
    names = sorted(word_names(word))
    swappable = [x for x in names if isinstance(env[x], (Finitary, EventuallyUniform))]
    defect = draw(st.sampled_from(["window"] + ["dropped"] * bool(names) + ["claimed"] * bool(swappable)))
    env = dict(env)
    if defect == "dropped":
        del env[draw(st.sampled_from(names))]
    elif defect == "claimed":
        name = draw(st.sampled_from(swappable))
        env[name] = _claimed(env[name])
    else:
        n = max(n + draw(st.sampled_from([-1, 1])), 0)
    return env, word, n


@settings(max_examples=150, deadline=None)
@given(defective_env_and_word(), st.data())
def test_a_defective_word_gives_the_tree_outcome(drawn, data):
    """Where a word names a missing, claimed or misaligned atom, evaluation,
    pushes and identity, order and action claims give what the tree reading
    gives (``_tree_outcome``): the value, or the first error's type and
    text."""
    env, word, n = drawn
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    calls = [lambda: evaluate_word(word, env, n), lambda: push_word(word, env, n, v)]
    for fields in (
        {"kind": WINDOW_IDENTITY, "target_aut": identity_aut()},
        {"kind": ORDER, "order": data.draw(st.sampled_from([1, 2, 6]))},
        {"kind": ACTION_ON_VECTOR, "vector": v, "target_vector": v},
    ):
        cert = Certificate(windows=(n,), environment=env, word=word, **fields)
        calls.append(lambda cert=cert: verify_certificate(cert))
    for fn in calls:
        assert _outcome(fn) == _tree_outcome(fn)


def test_an_error_leaves_later_words_to_their_atoms(monkeypatch):
    """One walk first raises on a product naming a missing atom, then reads
    the conjugation-step word prod_j Conj(psi, lam^j), j = 1..3, by the
    rules, with the 8 products of a fresh walk: an error leaves nothing
    behind that changes how later words are read.  The tree reading of the
    word (``oracles.tree_rows``) makes 14."""
    rng = random.Random(30)
    env = {"psi": uniform(random_unimodular(rng, 2)), "lam": uniform(random_unimodular(rng, 2))}
    psi, lam = Named("psi"), Named("lam")
    walk = _Rows(env, 2)
    with pytest.raises(WordError, match="unresolved name 'missing'"):
        walk.walk(Product((psi, Named("missing"))))
    word = Product(tuple(Conj(psi, Power(lam, j)) for j in (1, 2, 3)))
    products = ProductCounter(monkeypatch)
    got = walk.walk(word)
    assert products.count == 8
    assert got == _Rows(env, 2).walk(word)


# -- pushing vectors through words -------------------------------------------


WORDS = words()


def _outcome(fn):
    try:
        return fn()
    except InfrankError as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(one_atom_per_class(), WORDS, st.sampled_from([12, 24]), st.data())
def test_push_matches_dense(env, word, n, data):
    v = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    assert push_word(word, env, n, v) == evaluate_word(word, env, n).apply(v)


# -- the row-pair walk against the dense reference ---------------------------


@settings(max_examples=150)
@given(one_atom_per_class(), WORDS, st.sampled_from([12, 24]))
def test_row_walk_matches_the_dense_evaluation(env, word, n):
    """Row pairs walked, multiplied and made dense once give the window
    that dense atom windows multiplied entry by entry give."""
    assert evaluate_word(word, env, n) == oracles.evaluate_word(word, env, n)


def test_a_walk_keeps_the_tokens_it_keys():
    """Two temporary tokens walked in turn on one walk: the first stays
    alive in the memo, so the second cannot take its id and read its rows."""
    env = {"a": finitary((0,), IntMatrix.from_rows([[-1]])), "b": SWAP}
    walk = _Rows(env, 2)
    assert walk.walk(Named("a")) == (((0, -1),), ((1, 1),))
    assert walk.walk(Named("b")) == (((1, 1),), ((0, 1),))


@settings(max_examples=100)
@given(one_atom_per_class(), st.lists(WORDS, min_size=2, max_size=6), st.sampled_from([12, 24]))
def test_one_walk_reads_temporary_words_in_turn(env, drawn, n):
    """Fresh copies of the words, each dropped once walked, on one walk, and
    on the walks of one family on windows 12 and 24, which share their core
    windows' walks: every reading matches the dense evaluation of its word."""
    walk, walks = _Rows(env, n), {}
    for word in drawn:
        want = {m: oracles.evaluate_word(word, env, m) for m in (12, 24)}
        assert IntMatrix.from_pairs(walk.walk(deepcopy(word)), n) == want[n]
        for m in (12, 24):
            got = words_module._walk(walks, env, m).walk(deepcopy(word))
            assert IntMatrix.from_pairs(got, m) == want[m]


def _changed(m: IntMatrix, changes) -> IntMatrix:
    rows = [list(row) for row in m.data]
    for i, j, delta in changes:
        rows[i][j] += delta
    return IntMatrix.from_rows(rows)


@settings(max_examples=100)
@given(one_atom_per_class(), WORDS, WORDS, st.sampled_from([12, 24]), st.data())
def test_mismatch_lines_match_the_dense_scan(env, word, other, n, data):
    """With one target entry changed, or a few, also in one row, identity
    and sum claims report the entry that the row-major scan of the dense
    windows finds first."""
    i = data.draw(st.integers(0, n - 1))
    entries = st.tuples(st.integers(i, n - 1), st.integers(0, n - 1), st.sampled_from([-3, 2**80]))
    changes = [(i, *data.draw(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -2]))))]
    changes += data.draw(st.lists(entries, max_size=2))
    got = oracles.evaluate_word(word, env, n)
    total = got + oracles.evaluate_word(other, env, n)
    for dense, fields in (
        (got, {"kind": WINDOW_IDENTITY, "word": word}),
        (total, {"kind": WINDOW_SUM, "summand_words": (word, other)}),
    ):
        target = _changed(dense, changes)
        cert = Certificate(windows=(n,), environment=env, target_matrix=target, **fields)
        line = f"window {n}: MISMATCH at {oracles.first_difference(dense, target)}"
        assert verify_certificate(cert).report == (line,)
        assert verify_certificate(replace(cert, target_matrix=dense)).ok


# a bad atom, also where it never acts, placed anywhere in a word w
BAD_TOKENS = (
    lambda b: b,
    lambda b: Power(b, 0),
    lambda b: Inverse(Power(b, -3)),
)
PLACEMENTS = (
    lambda w, b: Product((w, b)),
    lambda w, b: Product((Product(()), b, w)),
    lambda w, b: Conj(w, b),
    lambda w, b: Conj(b, w),
    lambda w, b: Inverse(Product((b, w))),
    lambda w, b: Power(Product((w, b)), 0),
)


@settings(max_examples=150)
@given(
    one_atom_per_class(),
    WORDS,
    st.sampled_from(BAD_TOKENS),
    st.sampled_from(PLACEMENTS),
    st.sampled_from([(12, "missing", WordError), (24, "missing", WordError),
                     (7, "g", AlignmentError), (13, "g", AlignmentError)]),
)
def test_push_refuses_what_dense_refuses(env, w, bad, place, case):
    n, name, error = case
    word = place(w, bad(Named(name)))
    v = (1,) * n
    dense = _outcome(lambda: evaluate_word(word, env, n).apply(v))
    assert dense[0] is error
    assert _outcome(lambda: push_word(word, env, n, v)) == dense


def test_push_goes_dense_when_pushes_outgrow_the_word():
    """Nested conjugates and powers of a product, short and past the
    window size, push to the dense image."""
    v = (1, -2, 3, 5)
    for depth in (2, 10):
        word = Named("tau")
        for _ in range(depth):
            word = Conj(Named("sigma"), word)
        assert push_word(word, ENV, 4, v) == evaluate_word(word, ENV, 4).apply(v)
    for e in (2, -2, 3, -3):
        word = Power(Product((Named("tau"), Named("sigma"))), e)
        assert push_word(word, ENV, 4, v) == evaluate_word(word, ENV, 4).apply(v)


def test_nested_conjugates_push_by_products_past_the_bound():
    """Conjugates nested 11, 12 and 40 deep in conjugators push to the
    dense image."""
    v = (1, -2, 3, 5)
    word = Named("tau")
    for depth in range(1, 41):
        word = Conj(Named("sigma"), word)
        if depth in (11, 12, 40):
            assert push_word(word, ENV, 4, v) == evaluate_word(word, ENV, 4).apply(v)


@pytest.mark.parametrize("depth", [10, 40, 100])
def test_nested_conjugates_read_in_linear_products(depth, monkeypatch):
    """A conjugate nested d deep in conjugators, h = Conj(sigma, h), is read
    in 4d - 2 products on window 4, pushed alone or checked by an action
    claim on windows 4 and 8: the outermost level multiplies h sigma h^-1
    (two products), and each of the d - 1 conjugates below it is read once
    and inverted once (two products each)."""
    word = Named("tau")
    for _ in range(depth):
        word = Conj(Named("sigma"), word)
    v = (1, -2, 3, 5)
    want = evaluate_word(word, ENV, 4).apply(v)
    products = ProductCounter(monkeypatch)
    image = push_word(word, ENV, 4, v)
    assert products.count == 4 * depth - 2
    assert image == want
    products.count = 0
    cert = Certificate(kind=ACTION_ON_VECTOR, windows=(4, 8), environment=ENV, word=word,
                       vector=v, target_vector=image)
    assert verify_certificate(cert).ok
    assert products.count == 4 * depth - 2


@pytest.mark.parametrize(
    "word", [Product((Named("tau"),) * 3000), Power(Named("tau"), 3000)], ids=["product", "power"]
)
def test_long_words_push_in_loops(word):
    """3,000 letters of tau on window 3,000 merge into one power, read by
    squaring, so the push nests no deeper than the word: no RecursionError."""
    assert push_word(word, ENV, 3000, (0, 1)) == (3000, 1) + (0,) * 2998


# -- parsed words share equal subtrees ---------------------------------------


def _subtrees(word):
    yield word
    if isinstance(word, (Inverse, Power)):
        yield from _subtrees(word.inner)
    elif isinstance(word, Conj):
        yield from _subtrees(word.g)
        yield from _subtrees(word.h)
    elif isinstance(word, Product):
        for f in word.factors:
            yield from _subtrees(f)


@st.composite
def words_with_repeats(draw):
    """A word holding each of two drawn words twice, the second time as an
    equal but distinct object."""
    a, b = draw(WORDS), draw(WORDS)
    return Product((a, Conj(deepcopy(a), b), Inverse(Power(deepcopy(b), draw(EXPONENTS)))))


@settings(max_examples=150)
@given(one_atom_per_class(), words_with_repeats(), st.sampled_from([12, 24]), st.data())
def test_a_parse_shares_equal_subtrees(env, word, n, data):
    """Value-equal subtrees of a parsed word are one object, the word writes
    back to the same bytes, and it evaluates and pushes as the unshared word."""
    text = serialize_word(word, env)
    parsed, _ = parse_word(text)
    assert serialize_word(parsed, env) == text
    one_per_value = {}
    for t in _subtrees(parsed):
        assert one_per_value.setdefault(t, t) is t
    assert len(set(map(id, _subtrees(parsed)))) < len(set(map(id, _subtrees(word))))
    v = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    for read in (lambda w: evaluate_word(w, env, n), lambda w: push_word(w, env, n, v)):
        assert _outcome(lambda: read(parsed)) == _outcome(lambda: read(word))


# -- identity and order claims on the core window ----------------------------


def _dense_outcome(cert):
    """What ``verify_certificate`` gives with no window reduction at all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words_module, "core_window", lambda atoms, n: None)
        return _outcome(lambda: verify_certificate(cert))


@st.composite
def signed_permutation(draw, n):
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = draw(st.sampled_from([1, -1]))
    return IntMatrix.from_rows(rows)


def block(n):
    """A block of finite order, or one of (mostly) infinite order."""
    return st.one_of(signed_permutation(n), unimodular(n))


@st.composite
def core_env(draw):
    """Three atoms of one kind: head-free uniform with blocks of 1-4, uniform
    with blocks of 1-3 after heads of up to two blocks, or finitary below
    coordinate 8; or a mix of headed uniform and finitary atoms."""
    kind = draw(st.sampled_from(["head-free", "headed", "finitary", "mixed"]))
    env = {}
    for name in ("a", "b", "c"):
        atom_kind = draw(st.sampled_from(["headed", "finitary"])) if kind == "mixed" else kind
        if atom_kind == "finitary":
            size = draw(st.integers(1, 3))
            support = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
            env[name] = finitary(support, draw(block(size)))
        elif atom_kind == "headed":
            d = draw(st.integers(1, 3))
            env[name] = eventually_uniform(draw(block(d * draw(st.integers(0, 2)))), draw(block(d)))
        else:
            env[name] = uniform(draw(block(draw(st.integers(1, 4)))))
    return env


def _core_and_windows(atoms):
    """The core window of words over ``atoms``, worked out by hand, its
    period, three windows it stands for, and the head window where there is
    a head."""
    uniform_atoms = [a for a in atoms if isinstance(a, EventuallyUniform)]
    top = max((a.window_size for a in uniform_atoms), default=0)
    top = max([top] + [a.max_support + 1 for a in atoms if isinstance(a, Finitary)])
    if not uniform_atoms:
        return top, 0, (top, 2 * top, 3 * top)
    period = lcm(*(a.d for a in uniform_atoms))
    head = -(-top // period) * period
    core = head + period
    return core, period, (core, head + 2 * period, head + 3 * period) + ((head,) if head else ())


def _finite_order(m, bound=120):
    p = m
    for k in range(1, bound + 1):
        if p.is_identity():
            return k
        p = p * m
    return None


def _tampered(target, head, i, j):
    """``target`` with entry (i, j) of its head (``head``) or of its block or
    support matrix bumped; built past validation, as a hand-edited document
    could not be."""
    if isinstance(target, EventuallyUniform):
        m = target.window if head else target.block.matrix
    else:
        m = target.matrix
    rows = [list(r) for r in m.data]
    rows[i][j] += 1
    t = IntMatrix.from_rows(rows)
    if not isinstance(target, EventuallyUniform):
        return Finitary(target.support, t, t)
    if head:
        return EventuallyUniform(t, t, target.block)
    return EventuallyUniform(target.window, target.window_inverse, BlockSpec(t, t))


WORDS_ABC = words(names=("a", "b", "c"), exponents=st.integers(-3, 3))


@settings(max_examples=150)
@given(core_env(), WORDS_ABC, st.data())
def test_core_window_claims_match_dense(env, word, data):
    atoms = [env[name] for name in word_names(word)]
    core, period, windows = _core_and_windows(atoms)
    w = evaluate_word(word, env, core)
    if not period:
        target = finitary(range(core), w)
        tamper = [(False, len(target.support))]
    else:
        head = core - period
        target = eventually_uniform(w.top_left(head), w.submatrix(head, core, head, core))
        tamper = [(True, target.window_size), (False, target.d)]
    targets = [target, env["b"]]  # env["b"] is mostly a wrong target of another size
    for in_head, size in tamper:
        if size:
            i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
            targets.append(_tampered(target, in_head, i, j))
    certs = [
        Certificate(kind=WINDOW_IDENTITY, windows=windows, environment=env, word=word,
                    target_aut=t)
        for t in targets
    ]
    k = _finite_order(w)
    orders = (1, 2, 6) if k is None else (k, 2 * k, k + 1)
    certs += [
        Certificate(kind=ORDER, windows=windows, environment=env, word=word, order=o)
        for o in orders
    ]
    for cert in certs:
        with pytest.MonkeyPatch.context() as mp:
            products = ProductCounter(mp)
            got = _outcome(lambda: verify_certificate(cert))
        assert got == _dense_outcome(cert)
        # a target of other blocks or a longer head has a larger core
        target_atoms = [] if cert.target_aut is None else [cert.target_aut]
        bound = _core_and_windows(atoms + target_atoms)[0]
        if bound:
            assert products.largest <= bound
    if core:
        # the head window alone may see a smaller order than the core window
        assert verify_certificate(replace(certs[0], windows=windows[:3])).ok
        if k is not None:
            assert verify_certificate(replace(certs[len(targets)], windows=windows[:3])).ok


SUPPORTS = ("first chunk", "later chunks", "nowhere", "anywhere")


@settings(max_examples=150)
@given(core_env(), WORDS_ABC, st.sampled_from(SUPPORTS), st.data())
def test_core_window_action_claims_match_dense(env, word, support, data):
    atoms = [env[name] for name in word_names(word)]
    core, _, windows = _core_and_windows(atoms)
    windows = windows[:3]
    n = windows[-1]
    v = [0] * n
    if support == "first chunk":
        coords = range(core)
    elif support == "later chunks":
        coords = range(core, n)
    elif support == "nowhere":
        coords = range(0)
    else:
        coords = range(n)
    for i in coords:
        v[i] = data.draw(st.integers(-3, 3))
    # the claim is made on the windows the vector fits in, the largest among them
    windows = tuple(m for m in windows if not any(v[m:]))
    m = windows[0]
    vector = tuple(v[:m])
    image = push_word(word, env, n, v)
    targets = [image[:m], image]  # the second reaches past window m where image does
    if m:
        bumped = list(image[:m])
        bumped[data.draw(st.integers(0, m - 1))] += data.draw(st.sampled_from([-1, 1]))
        targets.append(tuple(bumped))
    for target in targets:
        cert = Certificate(kind=ACTION_ON_VECTOR, windows=windows, environment=env, word=word,
                           vector=vector, target_vector=target)
        with pytest.MonkeyPatch.context() as mp:
            products = ProductCounter(mp)
            got = _outcome(lambda: verify_certificate(cert))
        assert got == _dense_outcome(cert)
        if core:
            assert products.largest <= core
    assert verify_certificate(replace(cert, target_vector=image[:m])).ok


@st.composite
def held_products(draw):
    """Three head-free uniform atoms of blocks of 1-4, a product of
    ``Power(w, +-1)`` over words w of them, and for each factor whether a
    walk holds its rows."""
    env = {name: uniform(draw(unimodular(draw(st.integers(1, 4))))) for name in "abc"}
    inner = words(depth=2, names=("a", "b", "c"), exponents=st.integers(-2, 2))
    factors = draw(st.lists(st.tuples(inner, st.sampled_from([1, -1]), st.booleans()),
                            min_size=1, max_size=4))
    word = Product(tuple(Power(w, e) for w, e, _ in factors))
    return env, word, [held for _, _, held in factors]


@settings(max_examples=150)
@given(held_products(), st.integers(1, 2), st.data())
def test_pushes_through_held_rows_match_the_dense_image(drawn, k, data):
    """A product pushed, and claimed by action claims checked with walks
    that hold rows for none, some or all of its factors, gives the dense
    image and the same report lines."""
    env, word, held = drawn
    n = k * lcm(*(aut.d for aut in env.values()))
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    want = oracles.evaluate_word(word, env, n).apply(v)
    some, every = {}, {}
    for f, hold in zip(word.factors, held):
        blocks = [env[name].d for name in word_names(f.inner)]
        core = lcm(*blocks) if blocks else 0
        for walks in (some, every) if hold else (every,):
            words_module._walk(walks, env, core).walk(f.inner, f.exponent < 0)
    assert push_word(word, env, n, v) == want
    i = data.draw(st.integers(0, n - 1))
    bumped = want[:i] + (want[i] + 1,) + want[i + 1 :]
    for target in (want, bumped):
        cert = Certificate(kind=ACTION_ON_VECTOR, windows=(n, 2 * n), environment=env,
                           word=word, vector=v, target_vector=target)
        reports = [verify_certificate(cert, walks) for walks in (None, some, every)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].ok == (target == want)


EDGE_ENV = {
    "u": uniform(IntMatrix.from_rows([[1, 2], [0, 1]])),
    "v": uniform(IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
    "h": eventually_uniform(
        IntMatrix.from_rows([[-1, 0], [0, 1]]), IntMatrix.from_rows([[0, 1], [1, 0]])
    ),
    "g": graded((2,), ()),
    "f": finitary((0, 3), IntMatrix.from_rows([[0, 1], [1, 0]])),
}
UV = Product((Named("u"), Named("v"), Inverse(Named("u"))))


@pytest.mark.parametrize(
    "kind, windows, word, extra",
    [
        (ORDER, (0,), UV, {"order": 3}),
        (WINDOW_IDENTITY, (0, 6), UV, {"target_aut": EDGE_ENV["v"]}),
        (ORDER, (6, 8), UV, {"order": 3}),  # misaligned second window
        (ORDER, (8, 6), UV, {"order": 3}),  # misaligned first window
        (WINDOW_IDENTITY, (6, 12), Product((Named("u"), Named("nope"))),
         {"target_aut": EDGE_ENV["u"]}),
        (ORDER, (6,), Product((Named("nope"), Named("also"))), {"order": 3}),
        # a target matrix extends by the identity: this one holds on window 6 only
        (WINDOW_IDENTITY, (6, 12), Named("v"),
         {"target_matrix": IntMatrix.block_diag([EDGE_ENV["v"].block.matrix] * 2)}),
        (WINDOW_IDENTITY, (6, 12), Named("v"),
         {"target_matrix": IntMatrix.from_rows([[0, 1, 0], [0, 0, 2], [1, 0, 0]])}),
        (WINDOW_IDENTITY, (6, 12), Named("v"), {}),  # no target
        (WINDOW_IDENTITY, (6, 12), Product((Named("h"), Named("g"))),
         {"target_aut": EDGE_ENV["h"]}),
        (ORDER, (6, 12), Product((Named("h"), Named("g"))), {"order": 2}),
        (ORDER, (4, 8), Named("h"), {"order": 2}),  # headed alone
        (WINDOW_IDENTITY, (6, 12), Named("u"), {"target_aut": EDGE_ENV["f"]}),  # mixed classes
        (WINDOW_IDENTITY, (6, 12), Named("u"), {"target_aut": EDGE_ENV["v"]}),  # other blocks
        (WINDOW_IDENTITY, (2, 4), Named("u"), {"target_aut": EDGE_ENV["v"]}),  # misaligned target
        (ORDER, (4, 2), Named("f"), {"order": 2}),  # window short of the support
        # this vector reaches past the core window 2 into a second chunk; sums stay dense
        (ACTION_ON_VECTOR, (6, 12), Named("u"),
         {"vector": (0, 0, 0, 1), "target_vector": (0, 0, 2, 1)}),
        (WINDOW_SUM, (6, 12), None,
         {"summand_words": (Named("u"), Inverse(Named("u"))),
          "target_matrix": IntMatrix.from_rows([[2, 0], [0, 2]])}),
        (ORDER, (6, 12), UV, {"order": 0}),
        (ORDER, (6, 12), None, {"order": 3}),
    ],
)
def test_core_window_edges_match_dense(kind, windows, word, extra):
    cert = Certificate(kind=kind, windows=windows, environment=EDGE_ENV, word=word, **extra)
    assert _outcome(lambda: verify_certificate(cert)) == _dense_outcome(cert)


@pytest.mark.parametrize(
    "x, shown",
    [
        (0, "0"),
        (-7, "-7"),
        (2**2000, str(2**2000)),  # 603 digits: decimal, as before
        (10**4300 - 1, "9" * 4300),  # the longest decimal Python writes by default
        (-(10**4300) + 1, "-" + "9" * 4300),
        (10**4300, "<14285-bit integer, sha256 6363c3a5ff5e>"),
        (-(10**4300), "-<14285-bit integer, sha256 97750d6e523a>"),
    ],
    ids=["zero", "small", "2000-bit", "4300-digit", "-4300-digit", "4301-digit", "-4301-digit"],
)
def test_report_entries_past_the_decimal_limit_are_digested(x, shown):
    assert words_module._shown(x) == shown


def test_action_mismatch_with_huge_coordinate():
    a = finitary((0, 1), IntMatrix.from_rows([[2, 1], [1, 1]]))
    cert = Certificate(kind=ACTION_ON_VECTOR, windows=(2,), environment={"a": a},
                       word=Power(Named("a"), 100000), vector=(1, 0), target_vector=(1, 0))
    res = verify_certificate(cert)
    assert not res.ok
    assert res.report == (
        "window 2: MISMATCH at coordinate 0: got <138848-bit integer, sha256 3f2ff8b20606>, "
        "expected 1",
    )


def _identity_document(env, word, windows, target_rows):
    """An identity claim whose target has the window and block ``target_rows``,
    read back as a claimed value with no inverse witness."""
    window, block = target_rows
    cert = Certificate(kind=WINDOW_IDENTITY, windows=windows, environment=env, word=word,
                       target_aut=env["a"])
    obj = json.loads(serialize_certificate(cert))
    obj["target_aut"] = {"variant": "uniform", "window": [list(r) for r in window.data],
                         "block": [list(r) for r in block.data]}
    return parse_certificate(json.dumps(obj))


SINGULAR_2 = st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=2,
                      max_size=2).filter(lambda r: abs(r[0][0] * r[1][1] - r[0][1] * r[1][0]) != 1)


@settings(max_examples=100, deadline=None)
@given(unimodular(2), unimodular(2), unimodular(2), SINGULAR_2, st.booleans(), st.booleans())
def test_claimed_targets_are_shown_unimodular(window, block, other, singular, graded_atom,
                                              reach_block):
    """An identity claim with a claimed target verifies only if the target is
    unimodular.  A checked window past the target's head shows it; when every
    checked window is the head alone (window 2 here, with a graded atom in
    the word or without), the target's block is never compared, and the
    checked inverse refuses a singular one."""
    env = {"a": eventually_uniform(window, block), "g": graded((2,), ())}
    word = Product((Named("g"), Inverse(Named("g")), Named("a"))) if graded_atom else Named("a")
    windows = (2, 4) if reach_block else (2,)
    bad = IntMatrix.from_rows(singular)
    res = verify_certificate(_identity_document(env, word, windows, (window, bad)))
    assert not res.ok
    if not reach_block:
        assert res.report[-1] == "target: block matrix is not unimodular"
    else:
        assert "MISMATCH" in res.report[-1]
    # a unimodular block passes on the head alone, even one the atom lacks
    assert verify_certificate(_identity_document(env, word, (2,), (window, other))).ok
    assert verify_certificate(_identity_document(env, word, windows, (window, block))).ok


def test_identity_claims_hold_on_every_window_from_their_core():
    """A uniform atom with a head of 2 and blocks of 2: window 2 is the head
    alone, 4 and 6 reduce to the core window 4; a graded atom has no core."""
    a = eventually_uniform(
        IntMatrix.from_rows([[-1, 0], [0, 1]]), IntMatrix.from_rows([[0, 1], [1, 0]])
    )
    env = {"a": a, "g": graded((2,), ())}

    def claim(windows, word=Named("a"), target=a):
        return Certificate(kind=WINDOW_IDENTITY, windows=windows, environment=env, word=word,
                           target_aut=target)

    assert [holds_on_every_window(claim(w)) for w in ((2,), (4,), (2, 6), (0,))] == [
        False, True, True, False]
    assert not holds_on_every_window(claim((4,), Product((Named("g"), Named("a")))))
    assert not holds_on_every_window(replace(claim((4,)), kind=ORDER, order=2))


@pytest.mark.parametrize("kind", [WINDOW_IDENTITY, WINDOW_SUM])
@pytest.mark.parametrize("n", [2, 4])
def test_a_target_matrix_that_is_not_square_is_refused(kind, n):
    """A 2 x 3 target is refused on the window it fills and on a larger
    one alike, rather than compared with a square window."""
    target = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    word = Product((Named("tau"), Inverse(Named("tau"))))
    fields = {"word": word} if kind == WINDOW_IDENTITY else {"summand_words": (word,)}
    cert = Certificate(kind=kind, windows=(n,), environment=ENV, target_matrix=target, **fields)
    with pytest.raises(DimensionError, match="target of 2x3 is not square"):
        verify_certificate(cert)


# window sizes aligned for all of ``one_atom_per_class``'s atoms, which may
# share a core, or drawn from sizes aligned for some of the atoms or none
ALIGNED_WINDOWS = st.lists(st.sampled_from([12, 18, 24]), min_size=2, max_size=3, unique=True)
CLAIM_WINDOWS = st.one_of(
    ALIGNED_WINDOWS, st.lists(st.sampled_from([2, 6, 7, 8, 12, 16, 24]), min_size=1, max_size=3)
)
CLAIM_NAMES = st.sampled_from([("f", "u", "g"), ("f", "u"), ("g",), ("f", "u", "g", "missing")])


def _dense_or_identity(word, env, n):
    try:
        return oracles.evaluate_word(word, env, n)
    except InfrankError:
        return IntMatrix.identity(n)


@st.composite
def checked_claims(draw):
    """An identity, order or sum claim over one atom per class, on one to
    three windows.  Its target is the claimed value on one of them, that
    value with one entry changed, another atom, a matrix that is not square,
    or missing; an order is one of -1 to 6, or missing."""
    env = draw(one_atom_per_class())
    names = draw(CLAIM_NAMES)
    word = draw(words(names=names))
    windows = tuple(draw(CLAIM_WINDOWS))
    kind = draw(st.sampled_from([WINDOW_IDENTITY, ORDER, WINDOW_SUM]))
    if kind == ORDER:
        order = draw(st.sampled_from([None, -1, 0, 1, 2, 3, 4, 6]))
        return Certificate(kind=ORDER, windows=windows, environment=env, word=word, order=order)
    s = draw(st.sampled_from([min(windows), *windows]))
    summands = (word, *draw(st.lists(words(names=names), max_size=2)))
    if kind == WINDOW_SUM:
        value = reduce(add, (_dense_or_identity(w, env, s) for w in summands))
    else:
        value = _dense_or_identity(word, env, s)
    target = draw(st.sampled_from(["value", "changed", "atom", "not square", "missing"]))
    fields = {"target_matrix": value}
    if target == "changed":
        i, j = draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))
        rows = [list(row) for row in value.data]
        rows[i][j] += draw(st.sampled_from([-1, 2**70]))
        fields = {"target_matrix": IntMatrix.from_rows(rows)}
    elif target == "not square":
        fields = {"target_matrix": IntMatrix.from_rows([[1, 0]])}
    elif target == "missing":
        fields = {}
    if kind == WINDOW_SUM:
        return Certificate(kind=WINDOW_SUM, windows=windows, environment=env,
                           summand_words=summands if target != "missing" else (), **fields)
    if target == "value" and draw(st.booleans()):
        fields = {"target_aut": finitary(range(s), value)}
    elif target == "atom":
        fields = {"target_aut": draw(st.sampled_from([identity_aut(), *env.values()]))}
    return Certificate(kind=WINDOW_IDENTITY, windows=windows, environment=env, word=word, **fields)


@settings(max_examples=300)
@given(checked_claims())
def test_one_walk_per_certificate_matches_the_window_by_window_reference(cert):
    """Identity, order and sum claims give the verdict and report lines, or
    the error, of a dense check of each window on its own."""
    expected = _outcome(lambda: oracles.verify_per_window(cert))
    assert _outcome(lambda: verify_certificate(cert)) == expected
