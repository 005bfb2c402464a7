"""Acceptance criteria.

Each test implements one numbered criterion at its stated scale, asserts
exactly (all arithmetic is integer, tolerance zero), checks its runtime
budget, and prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import random
import time
from math import gcd

from infrank.autrep import (
    eventually_uniform,
    finitary,
    graded,
    invert,
    window_matrix,
)
from infrank.classify import (
    RuleBased,
    is_almost_radiation,
    is_normal_generator,
    ladder_report,
    lambda_levels,
    lambda_member,
    scalar_defect,
)
from infrank.cli import main
from infrank.intmat import IntMatrix
from infrank.numth import primes_upto
from infrank.serialize import (
    parse_aut,
    parse_certificate,
    parse_word,
    serialize_aut,
    serialize_certificate,
    serialize_word,
)
from infrank.witness import (
    bezout_combine,
    conjugate_product_reduce,
    factor_block_unitriangular,
    order_n_shear,
    tau_power,
    verify_chain,
    wans_three,
    zaushko_commutator,
)
from infrank.words import (
    ACTION_ON_VECTOR,
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

from helpers import build_corpus, random_matrix, random_unimodular
from oracles import compose_all


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


# -- criterion 1: shear reproduction ------------------------------------------


def test_criterion_1_shear_reproduction():
    t0 = time.time()
    for m in range(2, 11):
        t = order_n_shear(3, m)
        assert t.lam == IntMatrix.from_rows(
            [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert t.sigma == IntMatrix.from_rows(
            [[-m, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
    for n in range(2, 9):
        for m in range(2, 11):
            t = order_n_shear(n, m)
            r = 2 * n - 2
            eye = IntMatrix.identity(r)
            assert t.gamma.power(n) == eye
            for j in range(1, n):
                if n % j == 0:
                    assert t.gamma.power(j) != eye
            e1 = tuple(1 if i == 0 else 0 for i in range(r))
            if n >= 3:
                shear = [0] * r
                shear[n - 1] = 1  # e_n, 1-based
                shear[n] = -1  # e_{n+1}
                assert t.shear == tuple(shear)
            assert t.gamma.apply(e1) == tuple(e1[i] + m * t.shear[i] for i in range(r))
    report(1, "order-n shear matrices and action", t0, 1.0)


# -- criterion 2: commutator-shear identity ------------------------------------


def test_criterion_2_commutator_identity():
    t0 = time.time()
    rng = random.Random(2026)
    for _ in range(200):
        d = rng.randint(1, 4)
        rho = random_unimodular(rng, d)
        sigma, word, cert = zaushko_commutator(rho)
        for n in (2 * d, 4 * d):
            w = evaluate_word(word, cert.environment, n)
            for block in range(n // (2 * d)):
                base = 2 * d * block
                for i in range(d):
                    assert w.col(base + i) == tuple(
                        1 if j == base + i else 0 for j in range(n)
                    )
                for i in range(d):
                    col = list(w.col(base + d + i))
                    assert col[base + d + i] == 1
                    col[base + d + i] = 0
                    x_part = col[base : base + d]
                    assert x_part == [
                        (1 if j == i else 0) - rho.data[j][i] for j in range(d)
                    ]
                    col[base : base + d] = [0] * d
                    assert not any(col)
    report(2, "word fixes X and shears y_i by x_i - rho x_i", t0, 5.0)


# -- criterion 3: sum of three automorphisms ------------------------------------


def test_criterion_3_three_automorphism_sum():
    t0 = time.time()
    rng = random.Random(2027)
    for _ in range(200):
        d = rng.choice([2, 4, 6])
        f = random_matrix(rng, d, d, bound=9)
        parts = wans_three(f)
        assert len(parts) == 3
        total = IntMatrix.zeros(d, d)
        tail_total = IntMatrix.zeros(2, 2)
        for part in parts:
            total = total + window_matrix(part, d)
            tail_total = tail_total + part.block.matrix
            w = window_matrix(part, d)
            assert w * window_matrix(invert(part), d) == IntMatrix.identity(d)
        assert total == f
        assert tail_total == IntMatrix.zeros(2, 2)
    report(3, "window sum = f, tails cancel, inverses verified", t0, 5.0)


# -- criterion 4: three-conjugate factorization ----------------------------------


def test_criterion_4_three_conjugate_factorization():
    t0 = time.time()
    rng = random.Random(2028)
    from infrank.classify import congruence_gcd

    for trial in range(100):
        d = 4 if trial % 10 == 0 else 2
        m = rng.choice([2, 3, 4, 6])
        z = random_matrix(rng, d, d, bound=7)
        word, cert = factor_block_unitriangular(m, z)
        assert len(word.factors) == 3
        assert all(isinstance(f, Conj) for f in word.factors)
        assert cert.windows == (2 * d, 4 * d)
        assert verify_certificate(cert).ok
        env = cert.environment
        for f in word.factors:
            conj = compose_all(env[f.h.name], env[f.g.name], invert(env[f.h.name]))
            assert congruence_gcd(conj) % m == 0
    report(4, "three conjugates of tau^m reproduce beta, factors in Gamma(m)", t0, 10.0)


# -- criterion 5: classification dichotomy ---------------------------------------


def test_criterion_5_classification_dichotomy():
    t0 = time.time()
    rng = random.Random(2029)
    corpus = build_corpus(rng)
    assert len(corpus) == 500
    for aut in corpus:
        generator, _ = is_normal_generator(aut)
        radiation = is_almost_radiation(aut)
        leveled = any(lambda_member(aut, m) for m in range(2, 61))
        assert generator == (not radiation and not leveled)
    # scalar defect against the brute-force prime-scalar oracle
    for _ in range(120):
        b = random_unimodular(rng, rng.randint(1, 4))
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
            assert scalar == (g % p == 0)
    report(5, "dichotomy over 500 representations + scalar-defect oracle", t0, 10.0)


# -- criterion 6: conjugate-product gcd identity -----------------------------------


def test_criterion_6_gcd_identity():
    t0 = time.time()
    rng = random.Random(2030)
    for _ in range(500):
        ell = rng.randint(1, 6)
        pairs = []
        for _ in range(ell):
            m = rng.randint(2, 60)
            k = rng.randint(1, 60)
            while gcd(k, m) != 1:
                k = rng.randint(1, 60)
            pairs.append((k, m))
        r = conjugate_product_reduce(pairs)
        direct = 0
        for _, m in pairs:
            direct = gcd(direct, m)
        assert r.m == direct
        assert r.coefficients[-1] == pairs[-1][1]
    report(6, "coefficient gcd equals gcd of the moduli (500 tuples)", t0, 2.0)


# -- criterion 7: Bezout closure -----------------------------------------------


def test_criterion_7_bezout_closure():
    t0 = time.time()
    target_cache = {m: window_matrix(tau_power(m), 4) for m in range(1, 7)}
    for n1 in range(2, 13):
        for n2 in range(2, 13):
            if n1 == n2 or gcd(n1, n2) != 1:
                continue
            for m in range(1, 7):
                word, cert = bezout_combine(m, n1, n2)
                got = evaluate_word(word, cert.environment, 4)
                assert got == target_cache[m]
    report(7, "all coprime pairs <= 12, m <= 6 recombine to tau^m", t0, 2.0)


# -- criterion 8: ladder coherence ------------------------------------------------


def test_criterion_8_ladder_coherence():
    t0 = time.time()
    rng = random.Random(2029)
    corpus = build_corpus(rng)
    from infrank.autrep import EventuallyUniform, GradedBlock

    rungs = 0
    chains = 0
    for aut in corpus:
        if isinstance(aut, EventuallyUniform):
            g = scalar_defect(aut.block.matrix)
            if g >= 2:
                rep = ladder_report(aut)
                assert rep.kind == "rung" and rep.rung == g
                rungs += 1
                # explicit large-summand side: the block is scalar mod g
                assert rep.scalar is not None
                eye = IntMatrix.identity(aut.d)
                diff = aut.block.matrix - eye.scale(rep.scalar)
                assert all(x % g == 0 for x in diff.entries())
                if rep.chain is not None:
                    assert verify_chain(rep.chain).ok
                    chains += 1
                else:
                    assert rep.note
        elif isinstance(aut, GradedBlock):
            rep = ladder_report(aut)
            levels = lambda_levels(aut)
            assert isinstance(levels, RuleBased)
            # graded level sets are unbounded (infinitely many tail primes)
            assert rep.kind == "no-maximal-level"
    assert rungs >= 5 and chains >= 5
    report(8, f"rung = defect on {rungs} blocks, {chains} witness chains verified", t0, 5.0)


# -- criterion 9: counterexample demo ---------------------------------------------


def test_criterion_9_counterexample_demo(capsys):
    t0 = time.time()
    code = main(["filters", "demo-counterexample", "--primes", "3,5", "--probe", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all memberships verified: True" in out
    report(9, "demo verifies all level memberships and exits 0", t0, 1.0)


# -- criterion 10: serialization ----------------------------------------------------


def _random_aut(rng):
    kind = rng.randrange(3)
    if kind == 0:
        d = rng.randint(1, 3)
        n0 = d * rng.randint(0, 2)
        return eventually_uniform(random_unimodular(rng, n0), random_unimodular(rng, d))
    if kind == 1:
        support = tuple(sorted(rng.sample(range(9), rng.randint(1, 3))))
        return finitary(support, random_unimodular(rng, len(support)))
    prefix = tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(0, 2)))
    return graded(
        prefix or (2,),
        tuple(rng.sample([7, 11, 13], rng.randint(0, 2))),
        negated=rng.random() < 0.5,
    )


def _random_word(rng, names, depth=0):
    roll = rng.randrange(5) if depth < 2 else rng.randrange(2)
    if roll == 0:
        return Named(rng.choice(names))
    if roll == 1:
        return Inverse(Named(rng.choice(names)))
    if roll == 2:
        return Power(_random_word(rng, names, depth + 1), rng.randint(-3, 3))
    if roll == 3:
        return Conj(_random_word(rng, names, depth + 1), _random_word(rng, names, depth + 1))
    return Product(
        tuple(_random_word(rng, names, depth + 1) for _ in range(rng.randint(1, 3)))
    )


def test_criterion_10_serialization():
    t0 = time.time()
    rng = random.Random(2031)
    for _ in range(400):
        aut = _random_aut(rng)
        text = serialize_aut(aut)
        again = parse_aut(text)
        assert again == aut
        assert serialize_aut(again) == text
    for _ in range(300):
        names = ["a", "b", "c"]
        env = {name: _random_aut(rng) for name in names}
        word = _random_word(rng, names)
        text = serialize_word(word, env)
        word2, env2 = parse_word(text)
        assert (word2, env2) == (word, env)
        assert serialize_word(word2, env2) == text
    for i in range(300):
        env = {"x": _random_aut(rng)}
        if i % 2:
            cert = Certificate(
                kind=WINDOW_IDENTITY,
                windows=(6, 12),
                environment=env,
                word=Named("x"),
                target_aut=env["x"],
            )
        else:
            cert = Certificate(
                kind=ACTION_ON_VECTOR,
                windows=(6,),
                environment=env,
                word=Inverse(Named("x")),
                vector=tuple(rng.randint(-3, 3) for _ in range(6)),
                target_vector=tuple(rng.randint(-3, 3) for _ in range(6)),
            )
        text = serialize_certificate(cert)
        cert2 = parse_certificate(text)
        assert cert2 == cert
        assert serialize_certificate(cert2) == text
    report(10, "1000 round-trips lossless and byte-deterministic", t0, 5.0)
