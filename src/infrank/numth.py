"""Small exact number-theory helpers."""

from __future__ import annotations

from bisect import bisect_right
from itertools import count
from math import gcd, isqrt, prod
from typing import Iterator

from .errors import ValidationError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# The 13 primes up to 41: trial divisors and Miller-Rabin bases.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all 13 bases (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017): below it, strong
# Miller-Rabin to those bases decides primality exactly.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < ``PRIME_TEST_BOUND``; larger n are refused.

    Below 43^2 = 1849 a number is prime exactly when no prime in
    ``SMALL_PRIMES`` other than itself divides it, so the sieve
    ``primes_upto(1848)``, which strikes the multiples of exactly those
    primes, answers.  Past that, a common factor with them means composite;
    otherwise strong Miller-Rabin to the same 13 bases decides, as no
    composite below the bound passes it.
    """
    if n >= PRIME_TEST_BOUND:
        raise ValidationError(f"primality of {n} is not decided at or above {PRIME_TEST_BOUND}")
    if n < 1849:
        return n in _PRIMES_BELOW_1849
    if gcd(n, _PRIMORIAL) != 1:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


_TRIAL_PRIMES = tuple(primes_upto(1848))
_PRIMES_BELOW_1849 = frozenset(_TRIAL_PRIMES)
_PRIMORIAL = prod(SMALL_PRIMES)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


def primes_after(n: int) -> Iterator[int]:
    """The primes greater than n, ascending: read from ``_TRIAL_PRIMES`` up to
    1847, then found by ``next_prime``."""
    yield from _TRIAL_PRIMES[bisect_right(_TRIAL_PRIMES, n) :]
    p = max(n, _TRIAL_PRIMES[-1])
    while True:
        p = next_prime(p)
        yield p


# Trial division stops at the primes below 1849; Pollard's rho in Brent's
# variant (Pollard, BIT 1975; Brent, BIT 1980) splits what is left, within
# this many iterations of x -> x^2 + c per factorization.
RHO_BUDGET = 1 << 18
_RHO_BATCH = 128


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, in ascending order.

    Trial division by the primes below 1849 removes the small factors.  What
    is left is split by ``_rho``, each split checked by division, until
    ``is_prime`` settles every factor.  ``ValidationError`` when that takes
    more than ``RHO_BUDGET`` iterations, or a factor is at or above
    ``PRIME_TEST_BOUND`` and does not split.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    budget, rest = RHO_BUDGET, [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < PRIME_TEST_BOUND and is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _rho(m, budget)
        if not 1 < d < m or m % d:
            raise ValidationError(f"rho split {m} wrongly by {d}")
        rest += [d, m // d]
    return dict(sorted(out.items()))


def _rho(n: int, budget: int) -> tuple[int, int]:
    """A factor 1 < d < n of n, which has no prime factor below 1849, by
    Brent's cycle search on x -> x^2 + c mod n for c = 1, 2, ..., with the
    differences multiplied in batches of ``_RHO_BATCH`` before each gcd; and
    the iterations left of ``budget``.  ``ValidationError`` once the budget
    is spent, as it is for a prime n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < 2 * r:
                raise ValidationError(
                    f"{n} does not split within {RHO_BUDGET} rho iterations"
                )
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: step back through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"euler_phi expects m >= 1, got {m}")
    result = m
    for p in factorize(m):
        result -= result // p
    return result
