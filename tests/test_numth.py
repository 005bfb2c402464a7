from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrank.errors import ValidationError
from infrank.numth import (
    PRIME_TEST_BOUND,
    RHO_BUDGET,
    SMALL_PRIMES,
    factorize,
    is_prime,
    next_prime,
    primes_upto,
)

from oracles import trial_division_is_prime
from helpers import run_child


def test_is_prime_agrees_with_the_sieve():
    primes = set(primes_upto(10**5))
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == sorted(primes)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the nine primes up to 23
        318665857834031151167461,  # strong pseudoprime to the twelve primes up to 37
        43 * 43,
        41 * 43,
        (2**61 - 1) * 3,
        1000003 * 1000033,
        PRIME_TEST_BOUND - 2,
    ],
)
def test_composites_past_the_table_are_refused(n):
    assert not is_prime(n)


@pytest.mark.parametrize(
    "n",
    [1847, 1861, 2**31 - 1, 2**61 - 1, 1000000000000000003, 2**79 - 67, 3317044064679887385961813],
)
def test_primes_past_the_table(n):
    """The last is the largest prime below the bound."""
    assert is_prime(n)


def test_is_prime_agrees_with_trial_division_past_the_table():
    window = range(10**8, 10**8 + 3000)
    assert [n for n in window if is_prime(n)] == [n for n in window if trial_division_is_prime(n)]


def test_bound_is_the_first_strong_pseudoprime_to_the_bases_and_refused():
    n = PRIME_TEST_BOUND
    assert len(SMALL_PRIMES) == 13 and max(SMALL_PRIMES) == 41
    # it passes every base, so the test cannot tell it from a prime
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        assert x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))
    for m in (n, n + 1, 2 * n, 10**40):
        with pytest.raises(ValidationError, match=f"not decided at or above {n}$"):
            is_prime(m)


def test_next_prime_walks_the_primes():
    p, walk = 1, []
    while p < 3000:
        p = next_prime(p)
        walk.append(p)
    assert walk == primes_upto(walk[-1])


def test_factorize_agrees_with_trial_division():
    for n in [*range(1, 3000), 1849 * 1849, 43 * 10007**2, 2**40 * 1000003, 999983 * 1000003]:
        f = factorize(n)
        assert all(trial_division_is_prime(p) for p in f)
        assert prod(p**e for p, e in f.items()) == n


def test_factorize_settles_a_large_prime_cofactor_at_once():
    """Trial division up to the square root of 10^18 + 3 would run for
    minutes; is_prime settles it before that, and again once 2 is divided out."""
    code = (
        "from infrank.numth import factorize; "
        "print(factorize(10**18 + 3), factorize(2 * (10**18 + 3)))"
    )
    proc = run_child(["-c", code], timeout=30)
    assert proc.stdout == "{1000000000000000003: 1} {2: 1, 1000000000000000003: 1}\n"


# primes from below the trial bound to past what trial division could reach
SPREAD_PRIMES = [2, 3, 1847, 1861, 65537, 999983, 1000003, 10**9 + 7, 10**9 + 9,
                 2**61 - 1, 10**18 + 3]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(SPREAD_PRIMES), min_size=1, max_size=4))
def test_factorize_splits_products_of_spread_primes(primes):
    """Trial division to 1848 and rho splits past it give every prime with
    its multiplicity, in ascending order, whenever the product is below
    ``PRIME_TEST_BOUND`` or its large factors are."""
    n = prod(primes)
    want = {p: primes.count(p) for p in sorted(set(primes))}
    big = [p for p in primes if p > 1848]
    if prod(big) < PRIME_TEST_BOUND or len(big) == 1:
        assert list(factorize(n).items()) == list(want.items())
    else:
        try:
            assert list(factorize(n).items()) == list(want.items())
        except ValidationError as exc:
            assert "rho iterations" in str(exc)


def test_factorize_splits_a_semiprime_of_two_ten_digit_primes():
    assert factorize((10**9 + 7) * (10**9 + 9)) == {10**9 + 7: 1, 10**9 + 9: 1}
    assert factorize(1861**2 * (10**9 + 7)) == {1861: 2, 10**9 + 7: 1}


def test_factorize_refuses_past_its_rho_budget():
    """Two primes near 10^20 need about 10^10 rho steps; the budget of
    ``RHO_BUDGET`` runs out first.  A prime at or above ``PRIME_TEST_BOUND``
    cannot be settled and does not split either."""
    p, q = 100000000000000000039, 100000000000000000129
    assert is_prime(p) and is_prime(q)
    with pytest.raises(ValidationError, match=f"^{p * q} does not split within {RHO_BUDGET} rho"):
        factorize(p * q)
    with pytest.raises(ValidationError, match="does not split within"):
        factorize(2**89 - 1)
