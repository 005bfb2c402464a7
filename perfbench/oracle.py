"""Independent arithmetic for the benchmark's correctness checks.

Nothing here calls ``infrank``: matrices are tuples of row tuples (or the
``.data`` of an ``IntMatrix``), primes come from a local sieve, and words
are pushed through atoms one vector at a time.  The checks in
``workloads.py`` compare the program's outputs with these results.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- primes ------------------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


_PRIMES = primes_upto(20_000)


def prime_factors(n: int) -> set[int]:
    out = set()
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out.add(p)
            n //= p
    if n > 1:
        out.add(n)
    return out


def euler_phi(m: int) -> int:
    out = m
    for p in prime_factors(m):
        out -= out // p
    return out


def graded_multipliers(prefix, excluded, count: int) -> list[int]:
    """The first ``count`` multipliers: the prefix, then increasing primes
    that are neither excluded nor divide a prefix entry."""
    skip = set(excluded)
    for m in prefix:
        skip |= prime_factors(m)
    out = list(prefix[:count])
    primes = iter(_PRIMES)
    while len(out) < count:
        p = next(primes)
        if p not in skip:
            out.append(p)
    return out


def graded_increments(prefix, excluded, negated: bool, count: int) -> list[int]:
    """Shear coefficients of the first ``count`` pairs: +-(m_0 m_1 ... m_n)."""
    out = []
    c = 1
    for mult in graded_multipliers(prefix, excluded, count):
        c *= mult
        out.append(-c if negated else c)
    return out


# -- small matrices ------------------------------------------------------------


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def scalar_defect(b) -> int:
    """gcd of the off-diagonal entries and of the diagonal differences."""
    g = 0
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            g = gcd(g, x - b[0][0] if i == j else x)
    return g


def is_scalar_mod(b, p: int) -> bool:
    """Brute force over scalars k: is b == k*I mod p for some k?"""
    return any(
        all((x - (k if i == j else 0)) % p == 0 for i, row in enumerate(b) for j, x in enumerate(row))
        for k in range(p)
    )


def entries_gcd_minus_identity(rows) -> int:
    g = 0
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            g = gcd(g, x - (i == j))
    return g


def _minors_gcd(u: list[int], v: list[int]) -> int:
    """gcd of the 2x2 minors of the columns u, v: 1 iff {u, v} extends to a basis."""
    g = 0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            g = gcd(g, u[i] * v[j] - u[j] * v[i])
            if g == 1:
                return 1
    return g


def pair_search_length(b) -> int:
    """How many coefficient vectors w in [-3, 3]^dim a search for {w, Bw}
    extending to a basis tries, first on one copy of the block and then, for
    blocks of dimension <= 2, on two: the work of the pair-witness search of
    a normal generator, in the order the program searches."""
    d = len(b)
    tried = 0
    copies = (1, 2) if d <= 2 else (1,)
    for c in copies:
        dim = c * d
        for w in product(range(-3, 4), repeat=dim):
            if not any(w):
                continue
            tried += 1
            if dim < 2:
                continue
            image = [sum(b[i % d][j % d] * w[j] for j in range(dim) if j // d == i // d)
                     for i in range(dim)]
            if _minors_gcd(list(w), image) == 1:
                return tried
    return tried


# -- words on vectors ----------------------------------------------------------


def _mat_vec(m, v):
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def act(aut, n: int, vec: list[int], inv: bool) -> list[int]:
    """Apply a parsed atom (or its inverse) to a length-n vector.

    Reads only the atom's fields: ``support``/``matrix``/``inverse`` of a
    finitary atom, ``window``/``window_inverse`` and ``block.matrix``/
    ``block.inverse`` of an eventually-uniform one.
    """
    out = list(vec)
    if hasattr(aut, "support"):
        mat = (aut.inverse if inv else aut.matrix).data
        sub = _mat_vec(mat, [vec[i] for i in aut.support])
        for i, x in zip(aut.support, sub):
            out[i] = x
        return out
    if hasattr(aut, "block"):
        win = (aut.window_inverse if inv else aut.window).data
        blk = (aut.block.inverse if inv else aut.block.matrix).data
        n0, d = len(win), len(blk)
        expect(n >= n0 and (n - n0) % d == 0, f"window {n} misaligned for atom ({n0} + {d}k)")
        out[:n0] = _mat_vec(win, vec[:n0])
        for base in range(n0, n, d):
            out[base : base + d] = _mat_vec(blk, vec[base : base + d])
        return out
    raise CheckFailed(f"vector evaluator has no rule for atom {type(aut).__name__}")


def push(word, env, n: int, vec: list[int], inv: bool = False) -> list[int]:
    """The image of ``vec`` under ``word`` (or its inverse) on window n.

    A product acts rightmost factor first; Conj(g, h) is h g h^-1.
    """
    kind = type(word).__name__
    if kind == "Named":
        return act(env[word.name], n, vec, inv)
    if kind == "Inverse":
        return push(word.inner, env, n, vec, not inv)
    if kind == "Power":
        e = word.exponent
        flip = inv != (e < 0)
        for _ in range(abs(e)):
            vec = push(word.inner, env, n, vec, flip)
        return vec
    if kind == "Conj":
        vec = push(word.h, env, n, vec, True)
        vec = push(word.g, env, n, vec, inv)
        return push(word.h, env, n, vec, False)
    if kind == "Product":
        factors = word.factors if inv else reversed(word.factors)
        for f in factors:
            vec = push(f, env, n, vec, inv)
        return vec
    raise CheckFailed(f"vector evaluator has no rule for token {kind}")


def check_inverse_fields(env) -> None:
    """Every atom's stored inverse really inverts it."""
    for name, aut in env.items():
        if hasattr(aut, "support"):
            pairs = [(aut.matrix.data, aut.inverse.data)]
        else:
            pairs = [(aut.window.data, aut.window_inverse.data), (aut.block.matrix.data, aut.block.inverse.data)]
        for m, minv in pairs:
            expect(matmul(m, minv) == identity(len(m)), f"atom {name}: stored inverse is wrong")


def unit(n: int, i: int) -> list[int]:
    v = [0] * n
    v[i] = 1
    return v


# -- window text --------------------------------------------------------------


def check_graded_window(lines: list[str], n: int, increments: list[int]) -> None:
    """The printed n x n window is the identity plus increments at (2p+1, 2p)."""
    expect(lines and lines[0].split() == [str(n), str(n)], f"window header is not '{n} {n}'")
    expect(len(lines) == n + 1, f"expected {n} window rows, found {len(lines) - 1}")
    for i, line in enumerate(lines[1:]):
        row = [int(x) for x in line.split()]
        want = [int(i == j) for j in range(n)]
        if i % 2:
            want[i - 1] = increments[i // 2]
        expect(row == want, f"window row {i} differs from the sieve's increments")
