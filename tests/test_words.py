import random

import pytest

from infrank.autrep import finitary, graded, uniform
from infrank.errors import ValidationError, WordError
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
    verify_certificate,
)

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
