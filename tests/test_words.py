import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrank.autrep import eventually_uniform, finitary, graded, uniform
from infrank.errors import AlignmentError, InfrankError, ValidationError, WordError
from infrank.intmat import IntMatrix
from infrank.witness import order_n_shear, tau_power
from infrank.words import (
    ACTION_ON_VECTOR,
    ORDER,
    WINDOW_IDENTITY,
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    evaluate_word,
    push_word,
    verify_certificate,
)

from test_autrep import unimodular
from test_intmat import ProductCounter, random_unimodular


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


# -- pushing vectors through words -------------------------------------------


@st.composite
def one_atom_per_class(draw):
    """A finitary atom below coordinate 8, an eventually uniform atom with a
    head of up to 6 and blocks of 1-3, and a graded shear: windows 12 and 24
    are aligned for all three."""
    size = draw(st.integers(1, 3))
    support = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
    d = draw(st.integers(1, 3))
    return {
        "f": finitary(support, draw(unimodular(size))),
        "u": eventually_uniform(draw(unimodular(d * draw(st.integers(0, 2)))), draw(unimodular(d))),
        "g": graded(
            draw(st.lists(st.integers(2, 9), max_size=2)),
            draw(st.sets(st.sampled_from([2, 3, 5]))),
            draw(st.booleans()),
        ),
    }


# |e| > 12 passes the push/dense crossover on window 12
EXPONENTS = st.sampled_from([-14, -3, -2, -1, 0, 1, 2, 3, 13])


@st.composite
def words(draw, depth=3):
    """Words over the atoms f, u and g nesting up to ``depth`` tokens deep."""
    kind = draw(st.integers(0, 5)) if depth else 0
    if kind < 2:
        return Named(draw(st.sampled_from(["f", "u", "g"])))
    inner = words(depth - 1)
    if kind == 2:
        return Inverse(draw(inner))
    if kind == 3:
        return Power(draw(inner), draw(EXPONENTS))
    if kind == 4:
        return Conj(draw(inner), draw(inner))
    return Product(tuple(draw(st.lists(inner, max_size=3))))


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


def test_push_goes_dense_when_pushes_outgrow_the_word(monkeypatch):
    products = ProductCounter(monkeypatch)
    v = (1, -2, 3, 5)
    for depth, dense in ((2, False), (10, True)):
        # each level pushes its conjugator twice: 2^(depth + 1) - 1 pushes
        word = Named("tau")
        for _ in range(depth):
            word = Conj(Named("sigma"), word)
        products.count = 0
        got = push_word(word, ENV, 4, v)
        assert (products.count > 0) == dense
        assert got == evaluate_word(word, ENV, 4).apply(v)
