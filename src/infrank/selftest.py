"""Built-in invariant suite behind the ``selftest`` CLI subcommand.

Each check exercises one mathematical statement the library rests on and
reports pass/fail; the full pytest suite covers the same ground (and more)
with finer assertions.  Engines verify the certificates they return and
raise on a failure, which fails the check, so checks do not verify engine
output again.
"""

from __future__ import annotations

import random
from typing import Callable

from .autrep import (
    compose,
    finitary,
    graded,
    identity_aut,
    invert,
    uniform,
    window_matrix,
)
from .classify import (
    DivisorsOf,
    is_almost_radiation,
    is_normal_generator,
    lambda_member,
    lambda_levels,
    scalar_defect,
)
from .filters import counterexample_demo, graded_construct
from .intmat import IntMatrix, complete_to_basis, is_unimodular_set, snf
from .serialize import parse_aut, parse_chain, serialize_aut, serialize_chain
from .witness import (
    bezout_combine,
    canonical_shear,
    conjugate_product_reduce,
    factor_block_unitriangular,
    km_pipeline,
    order_n_shear,
    tau_power,
    verify_chain,
    wans_three,
    zaushko_commutator,
)


def _random_matrix(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


def _random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = c
        m = m * IntMatrix.from_rows(e)
    if rng.random() < 0.5 and n:
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[0][0] = -1
        m = m * IntMatrix.from_rows(e)
    return m


def _check_snf(rng: random.Random) -> bool:
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        res = snf(m)
        if res.u * m * res.v != res.d:
            return False
        diag = res.diagonal()
        if any(d < 0 for d in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a and b % a:
                return False
            if a == 0 and b != 0:
                return False
    return True


def _check_completion(rng: random.Random) -> bool:
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        u = _random_unimodular(rng, n)
        cols = u.submatrix(0, n, 0, k)
        if not is_unimodular_set(cols):
            return False
        full = complete_to_basis(cols)
        if full.det() not in (1, -1):
            return False
        if any(full.col(j) != cols.col(j) for j in range(k)):
            return False
    return True


def _check_window_coherence(rng: random.Random) -> bool:
    samples = [
        tau_power(3),
        uniform(_random_unimodular(rng, 3)),
        graded((2, 5), (3,)),
        finitary((1, 4), _random_unimodular(rng, 2)),
    ]
    for aut in samples:
        if isinstance(aut, type(samples[2])):
            ns = (4, 8)
        else:
            ns = (6, 12)
        small, big = (window_matrix(aut, n) for n in ns)
        if big.top_left(ns[0]) != small:
            return False
    return True


def _check_homomorphism(rng: random.Random) -> bool:
    for _ in range(10):
        a = uniform(_random_unimodular(rng, 2))
        b = finitary((0, 1), _random_unimodular(rng, 2))
        c = compose(a, b)
        for n in (2, 4, 8):
            if window_matrix(c, n) != window_matrix(a, n) * window_matrix(b, n):
                return False
        if compose(a, invert(a)) != identity_aut():
            return False
    return True


def _check_shear_triples(_: random.Random) -> bool:
    for n in range(2, 6):
        for m in (2, 5):
            order_n_shear(n, m)  # raises on any invariant failure
    return True


def _check_commutator_shear(rng: random.Random) -> bool:
    for _ in range(8):
        d = rng.randint(1, 3)
        zaushko_commutator(_random_unimodular(rng, d))  # raises if its certificate fails
    return True


def _check_three_sum(rng: random.Random) -> bool:
    for _ in range(10):
        wans_three(_random_matrix(rng, rng.choice([2, 4])))  # raises if the windows miss f
    return True


def _check_factorization(rng: random.Random) -> bool:
    for _ in range(5):
        z = _random_matrix(rng, 2, 5)
        m = rng.choice([2, 3, 4, 6])
        factor_block_unitriangular(m, z)  # raises if its certificate fails
    return True


def _check_gcd_identity(rng: random.Random) -> bool:
    from math import gcd

    for _ in range(50):
        ell = rng.randint(1, 4)
        pairs = []
        for _ in range(ell):
            m = rng.randint(2, 30)
            k = rng.randint(1, 30)
            while gcd(k, m) != 1:
                k += 1
            pairs.append((k, m))
        conjugate_product_reduce(pairs)  # raises if the two gcds disagree
    return True


def _check_bezout(_: random.Random) -> bool:
    for n1, n2 in ((2, 3), (3, 5), (4, 9)):
        for m in (1, 2, 5):
            bezout_combine(m, n1, n2)  # raises if its certificate fails
    return True


def _check_dichotomy(rng: random.Random) -> bool:
    samples = [
        tau_power(1),
        tau_power(4),
        uniform(_random_unimodular(rng, 2)),
        finitary((0,), IntMatrix.from_rows([[-1]])),
        graded((3,), ()),
        graded_construct((), (7,)),
    ]
    for aut in samples:
        gen, _ = is_normal_generator(aut)
        rad = is_almost_radiation(aut)
        has_level = any(lambda_member(aut, m) for m in range(2, 61))
        if gen != (not rad and not has_level):
            return False
    return True


def _check_scalar_defect_oracle(rng: random.Random) -> bool:
    from .numth import primes_upto

    for _ in range(15):
        b = _random_unimodular(rng, rng.randint(1, 4))
        g = scalar_defect(b)
        for p in primes_upto(50):
            scalar = any(
                all(
                    (b.data[i][j] - (k if i == j else 0)) % p == 0
                    for i in range(b.rows)
                    for j in range(b.rows)
                )
                for k in range(p)
            )
            if scalar != (g % p == 0):
                return False
    return True


def _check_divisor_closure(rng: random.Random) -> bool:
    samples = [tau_power(6), uniform(_random_unimodular(rng, 2)), graded((2, 3), ())]
    for aut in samples:
        for m in range(2, 61):
            if lambda_member(aut, m):
                for d in range(2, m):
                    if m % d == 0 and not lambda_member(aut, d):
                        return False
    return True


def _check_ladder_shapes(_: random.Random) -> bool:
    from .classify import ladder_report

    rep = ladder_report(tau_power(4))
    if rep.kind != "rung" or rep.rung != 4 or rep.chain is None:
        return False
    rep = ladder_report(graded((2, 3), ()))
    if rep.kind != "no-maximal-level":
        return False
    levels = lambda_levels(uniform(IntMatrix.from_rows([[1, 0], [7, 1]])))
    return isinstance(levels, DivisorsOf)


def _check_counterexample(_: random.Random) -> bool:
    return counterexample_demo((3, 5), 7).all_verified


def _check_serialization(rng: random.Random) -> bool:
    for aut in (tau_power(2), graded((2,), (5,)), finitary((3,), IntMatrix.from_rows([[-1]]))):
        text = serialize_aut(aut)
        if parse_aut(text) != aut or serialize_aut(parse_aut(text)) != text:
            return False
    chain = km_pipeline(tau_power(3))
    text = serialize_chain(chain)
    if parse_chain(text) != chain:
        return False
    return verify_chain(parse_chain(text)).ok


def _check_pipeline_general(_: random.Random) -> bool:
    return km_pipeline(canonical_shear(3, 2)).level == 2


CHECKS: tuple[tuple[str, str, Callable[[random.Random], bool]], ...] = (
    ("snf-round-trip", "u*m*v = d with nonnegative divisibility chain", _check_snf),
    ("basis-completion", "unimodular columns extend to a determinant +-1 basis", _check_completion),
    ("window-coherence", "aligned windows nest as top-left submatrices", _check_window_coherence),
    ("composition-homomorphism", "window of a product is the product of windows", _check_homomorphism),
    ("order-n-shear", "order-n automorphism shearing e_1 by m, stabilizing the complement", _check_shear_triples),
    ("commutator-shear", "pi rho^-1 tau^-1 rho tau pi fixes X and shears Y by (1 - rho)X", _check_commutator_shear),
    ("sum-of-three", "every even-size integer matrix is a sum of three automorphisms", _check_three_sum),
    ("three-conjugate-factorization", "block-unitriangular elements are products of three shear conjugates", _check_factorization),
    ("conjugate-product-gcd", "shear coefficients of a conjugate product have gcd = gcd of moduli", _check_gcd_identity),
    ("bezout-closure", "coprime shear powers combine to the base shear", _check_bezout),
    ("generator-dichotomy", "normal generator iff no level >= 2 and not an almost-radiation", _check_dichotomy),
    ("scalar-defect-oracle", "block scalar mod p iff p divides the scalar defect", _check_scalar_defect_oracle),
    ("level-divisor-closure", "membership at level m implies membership at every divisor", _check_divisor_closure),
    ("ladder-report", "rung = maximal level, with witness chain for shear shapes", _check_ladder_shapes),
    ("counterexample-demo", "graded family sits in level 2 and in the probe level", _check_counterexample),
    ("serialization", "parse after serialize is the identity, byte-stable", _check_serialization),
    ("pipeline-general", "witness chain reaches the base shear from a twisted one", _check_pipeline_general),
)


def run_selftest(seed: int = 0) -> list[tuple[str, str, bool]]:
    results = []
    for name, statement, fn in CHECKS:
        rng = random.Random(seed)
        try:
            ok = fn(rng)
        except Exception:
            ok = False
        results.append((name, statement, ok))
    return results
