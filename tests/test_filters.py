import pytest

from infrank.autrep import finitary, uniform
from infrank.classify import (
    FinitePrimes,
    UnionWithPrefix,
    common_lambda_level,
    is_almost_radiation,
    lambda_member,
    nu_set,
)
from infrank.filters import (
    centered_check,
    counterexample_demo,
    graded_construct,
    omega_member,
)
from infrank.intmat import IntMatrix


U6 = uniform(IntMatrix.from_rows([[1, 6], [0, 1]]))


def test_omega_member_examples():
    assert omega_member(U6, [2, 3])
    assert not omega_member(U6, [2, 5])
    rad = finitary((0,), IntMatrix.from_rows([[-1]]))
    assert omega_member(rad, [2, 3, 5, 7, 11])


def test_omega_member_rejects_non_prime():
    with pytest.raises(ValueError):
        omega_member(U6, [4])


def test_omega_member_union_rule():
    sets = ([2], [3], [2, 3], [5], [2, 5])
    for p in sets:
        for q in sets:
            union = sorted(set(p) | set(q))
            assert omega_member(U6, union) == (
                omega_member(U6, p) and omega_member(U6, q)
            )


def test_centered_check_witness():
    r = centered_check([FinitePrimes(frozenset({2, 3})), FinitePrimes(frozenset({3, 5}))], 2)
    assert r.verdict
    assert ((0, 1), 3) in r.witnesses


def test_centered_check_failure():
    r = centered_check([FinitePrimes(frozenset({2})), FinitePrimes(frozenset({3}))], 2)
    assert not r.verdict
    assert r.empty_subfamily == (0, 1)


def test_centered_check_cofinite():
    r = centered_check(
        [
            UnionWithPrefix(frozenset(), frozenset({2})),
            UnionWithPrefix(frozenset(), frozenset({3})),
            FinitePrimes(frozenset({5, 7})),
        ],
        3,
    )
    assert r.verdict
    for idx, p in r.witnesses:
        descs = [
            UnionWithPrefix(frozenset(), frozenset({2})),
            UnionWithPrefix(frozenset(), frozenset({3})),
            FinitePrimes(frozenset({5, 7})),
        ]
        assert all(descs[i].contains(p) for i in idx)


def test_centered_check_size_bound():
    for size in (2, 0, -1):
        with pytest.raises(ValueError):
            centered_check([UnionWithPrefix(frozenset(), frozenset())], size)


def test_graded_construct_prime_set():
    g = graded_construct((3,), ())
    desc = nu_set(g)
    assert desc.contains(3)
    for p in (2, 5, 7, 11):
        assert desc.contains(p)
    assert not is_almost_radiation(g)
    # levels 3, 3*2, 3*2*5, ...
    assert lambda_member(g, 3)
    assert lambda_member(g, 6)
    assert lambda_member(g, 30)
    assert not lambda_member(g, 9)


def test_graded_construct_all_except():
    g = graded_construct((), (7,))
    desc = nu_set(g)
    assert not desc.contains(7)
    for p in (2, 3, 5, 11, 13):
        assert desc.contains(p)
    assert not is_almost_radiation(g)


def test_graded_construct_empty_everything():
    g = graded_construct((), ())
    desc = nu_set(g)
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert desc.contains(p)
    assert not is_almost_radiation(g)


def test_graded_construct_prefix_chain_membership():
    g = graded_construct((3, 5), (2,))
    product = 1
    for n in range(4):
        product *= g.multiplier(n)
        assert lambda_member(g, product)
    # tail primes enter with exponent one only
    for n in range(2, 5):
        p = g.multiplier(n)
        assert lambda_member(g, p)
        assert not lambda_member(g, p * p)


def test_graded_construct_validation():
    with pytest.raises(ValueError):
        graded_construct((4,), ())
    with pytest.raises(ValueError):
        graded_construct((3, 3), ())
    with pytest.raises(ValueError):
        graded_construct((3,), (3,))


def test_counterexample_demo_3_5_probe_7():
    rep = counterexample_demo((3, 5), 7)
    assert rep.all_verified
    assert rep.memberships == ((3, True, True), (5, True, True))


def test_counterexample_demo_single():
    rep = counterexample_demo((3,), 5)
    assert rep.all_verified


def test_counterexample_demo_rejects_small_probe():
    with pytest.raises(ValueError):
        counterexample_demo((3, 5), 3)
    with pytest.raises(ValueError):
        counterexample_demo((2, 5), 7)
    with pytest.raises(ValueError):
        counterexample_demo((3,), 4)


def test_disjoint_nu_pair_has_no_common_level():
    # the realizable shadow of "disjoint prime sets force an improper closure"
    shear5 = uniform(IntMatrix.from_rows([[1, 5], [0, 1]]))
    avoid5 = graded_construct((), (5,))
    assert common_lambda_level([shear5, avoid5]) is None


def test_centered_check_rejects_unknown_descriptor():
    with pytest.raises(TypeError):
        centered_check([UnionWithPrefix(frozenset(), frozenset()), object()], 2)
