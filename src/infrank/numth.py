"""Small exact number-theory helpers."""

from __future__ import annotations

from itertools import chain, count
from math import gcd, isqrt, prod

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


_PRIMES_BELOW_1849 = frozenset(primes_upto(1848))
_PRIMORIAL = prod(SMALL_PRIMES)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division
    that stops once what is left of n is prime: ``is_prime`` tests it first
    and after each prime divided out, while it is below ``PRIME_TEST_BOUND``."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    changed = True
    # 2, 3, then every 6k - 1 and 6k + 1: all primes, and few other numbers
    for p in chain((2, 3), (f + d for f in count(5, 6) for d in (0, 2))):
        if p * p > n or (changed and n < PRIME_TEST_BOUND and is_prime(n)):
            break
        changed = n % p == 0
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"euler_phi expects m >= 1, got {m}")
    result = m
    for p in factorize(m):
        result -= result // p
    return result
