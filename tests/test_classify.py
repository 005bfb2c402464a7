import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infrank.autrep import (
    Finitary,
    GradedBlock,
    compose,
    finitary,
    graded,
    identity_aut,
    invert,
    uniform,
    window_matrix,
)
from infrank.classify import (
    LOWER_BOUND_NOT_CONSTRUCTED,
    NO_MAXIMAL_LEVEL,
    DivisorsOf,
    FinitePrimes,
    LadderReport,
    RuleBased,
    UnionWithPrefix,
    classification_summary,
    common_lambda_level,
    congruence_gcd,
    is_almost_radiation,
    is_normal_generator,
    ladder_report,
    lambda_levels,
    lambda_member,
    nu_set,
    scalar_defect,
)
from infrank.errors import DimensionError
from infrank.intmat import IntMatrix, is_unimodular_set
from infrank.numth import primes_upto, xgcd
from infrank.serialize import serialize_aut
from infrank.witness import canonical_shear, tau_power, verify_chain

from oracles import divisor_scan_level
from helpers import build_corpus, finitary_or_uniform, random_unimodular, run, run_child


def u_shear(m):
    return uniform(IntMatrix.from_rows([[1, m], [0, 1]]))


# -- congruence gcd ---------------------------------------------------------


def test_congruence_gcd_identity_is_zero():
    assert congruence_gcd(identity_aut()) == 0


def test_congruence_gcd_single_increment():
    assert congruence_gcd(u_shear(6)) == 6


def test_congruence_gcd_graded():
    # increments 2, 6, 30, ... have gcd 2, and 2 divides all later products
    g = graded((2, 3), ())
    incs = [g.increment(i) for i in range(5)]
    from math import gcd

    acc = 0
    for inc in incs:
        acc = gcd(acc, inc)
    assert acc == 2
    assert congruence_gcd(g) == 2


def test_congruence_gcd_respects_window():
    rng = random.Random(30)
    from infrank.autrep import eventually_uniform

    aut = eventually_uniform(random_unimodular(rng, 2), IntMatrix.from_rows([[1, 4], [0, 1]]))
    c = congruence_gcd(aut)
    for m in (2, 3, 4):
        member = all(
            x % m == 0
            for x in (window_matrix(aut, 8) - IntMatrix.identity(8)).entries()
        )
        assert member == (c % m == 0)


def test_gamma_subgroup_closure():
    rng = random.Random(31)
    for _ in range(30):
        a = uniform(random_unimodular(rng, 2))
        b = uniform(random_unimodular(rng, 2))
        ca, cb, cab = congruence_gcd(a), congruence_gcd(b), congruence_gcd(compose(a, b))
        for m in range(2, 20):
            if ca % m == 0 and cb % m == 0:
                assert cab % m == 0


# -- scalar defect ----------------------------------------------------------


def brute_scalar_mod(b: IntMatrix, p: int) -> bool:
    return any(
        all(
            (b.data[i][j] - (k if i == j else 0)) % p == 0
            for i in range(b.rows)
            for j in range(b.rows)
        )
        for k in range(p)
    )


def test_scalar_defect_examples():
    # brute force over primes <= 50: only p = 2 makes [[1,2],[0,1]] scalar
    b = IntMatrix.from_rows([[1, 2], [0, 1]])
    assert [p for p in primes_upto(50) if brute_scalar_mod(b, p)] == [2]
    assert scalar_defect(b) == 2
    b1 = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert [p for p in primes_upto(50) if brute_scalar_mod(b1, p)] == []
    assert scalar_defect(b1) == 1
    assert scalar_defect(IntMatrix.identity(3).scale(-1)) == 0


def test_scalar_defect_needs_square():
    with pytest.raises(DimensionError):
        scalar_defect(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


# -- lambda levels -----------------------------------------------------------


def test_lambda_levels_uniform6():
    aut = u_shear(6)
    assert lambda_levels(aut) == DivisorsOf(6)
    assert lambda_member(aut, 2)
    assert lambda_member(aut, 3)
    assert lambda_member(aut, 6)
    assert not lambda_member(aut, 5)


def test_lambda_levels_finitary_all():
    rng = random.Random(33)
    f = finitary((0, 1), random_unimodular(rng, 2))
    assert lambda_levels(f) == DivisorsOf(0)
    assert all(lambda_member(f, m) for m in range(2, 40))


def test_lambda_levels_graded_rule():
    g = graded((2, 3), ())
    assert lambda_member(g, 6)
    assert lambda_member(g, 30)
    assert not lambda_member(g, 4)
    assert lambda_member(g, 5)
    assert not lambda_member(g, 25)
    assert lambda_member(g, 2 * 3 * 5 * 7)


@settings(max_examples=200)
@given(
    prefix=st.lists(st.integers(2, 40), max_size=3),
    excluded=st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])),
    m=st.integers(2, 300),
)
def test_rule_based_member_is_divisibility(prefix, excluded, m):
    levels = lambda_levels(graded(prefix, excluded, negated=True))
    assert isinstance(levels, RuleBased)
    # every prime <= 300 outside the exclusions is a multiplier within the
    # first len(prefix) + 62 indices, so later products add no level <= 300
    g = graded(prefix, excluded)
    products = [g.increment(i) for i in range(len(prefix) + 62)]
    assert levels.member(m) == any(c % m == 0 for c in products)


def test_a_graded_summary_reads_one_increment_table(monkeypatch):
    """The level set of a graded block reads the block's own increment
    table, so every increment one summary reads lands in that table."""
    g = graded((2, 3), (11,))
    assert lambda_levels(g).block._table is g._table
    assert lambda_levels(invert(g)).block._table is g._table
    read = []
    increments = GradedBlock._increments

    def reading(block, k):
        read.append((block._table is g._table, k))
        return increments(block, k)

    monkeypatch.setattr(GradedBlock, "_increments", reading)
    classification_summary(g)
    assert read and all(shared for shared, _ in read)
    assert len(g._table[0]) >= max(k for _, k in read)


def test_lambda_levels_ignore_sign():
    for g in (graded((2, 3), ()), graded((6, 10), (7,)), graded((), (3,), negated=True)):
        assert lambda_levels(g) == lambda_levels(invert(g))
        assert lambda_levels(g).block.negated is False


def test_lambda_member_negative_level_raises():
    for aut in (finitary((0, 1), IntMatrix.from_rows([[0, 1], [1, 0]])), tau_power(4),
                graded((2, 3), ())):
        with pytest.raises(ValueError):
            lambda_member(aut, -1)
        with pytest.raises(ValueError):
            lambda_member(aut, -6)


def test_divisor_closure():
    rng = random.Random(34)
    samples = [
        u_shear(6),
        u_shear(12),
        uniform(random_unimodular(rng, 2)),
        uniform(random_unimodular(rng, 3)),
        graded((2, 3), ()),
        graded((5,), (2,)),
        finitary((0,), IntMatrix.from_rows([[-1]])),
    ]
    for aut in samples:
        for m in range(2, 61):
            if lambda_member(aut, m):
                for d in range(2, m):
                    if m % d == 0:
                        assert lambda_member(aut, d)


def test_almost_radiation_in_all_levels():
    rng = random.Random(35)
    samples = [
        finitary((0, 1), random_unimodular(rng, 2)),
        uniform(IntMatrix.identity(2).scale(-1)),
        identity_aut(),
    ]
    for aut in samples:
        assert is_almost_radiation(aut)
        for m in range(2, 101):
            assert lambda_member(aut, m)


def test_almost_radiation_table():
    assert is_almost_radiation(finitary((0, 1), IntMatrix.from_rows([[0, 1], [1, 0]])))
    assert not is_almost_radiation(tau_power(1))
    assert not is_almost_radiation(graded((2,), ()))
    from infrank.autrep import eventually_uniform

    mixed = eventually_uniform(IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.identity(2))
    assert is_almost_radiation(mixed)


def block_is_plus_minus_identity(aut) -> bool:
    """The almost-radiation test by its definition, kept as an oracle."""
    if isinstance(aut, Finitary):
        return True
    eye = IntMatrix.identity(aut.d)
    return aut.block.matrix in (eye, eye.scale(-1))


@settings(max_examples=150)
@given(finitary_or_uniform())
def test_level_set_is_divisors_of_scalar_defect(aut):
    levels = lambda_levels(aut)
    assert isinstance(levels, DivisorsOf)
    assert is_almost_radiation(aut) == block_is_plus_minus_identity(aut) == lambda_member(aut, 0)
    for m in range(2, 61):
        assert lambda_member(aut, m) == (levels.g % m == 0)
        if not isinstance(aut, Finitary):
            assert lambda_member(aut, m) == brute_scalar_mod(aut.block.matrix, m)


# -- normal generator dichotomy ----------------------------------------------


def test_tau_is_generator_with_witness():
    ok, ev = is_normal_generator(tau_power(1))
    assert ok
    assert ev.kind == "pair-witness"
    w, image = ev.witness
    cols = IntMatrix.from_rows([[w[i], image[i]] for i in range(len(w))])
    assert is_unimodular_set(cols)


def test_shear2_not_generator():
    ok, ev = is_normal_generator(u_shear(2))
    assert not ok
    assert ev.level == 2


def test_negation_not_generator():
    ok, ev = is_normal_generator(finitary((0,), IntMatrix.from_rows([[-1]])))
    assert not ok
    assert ev.kind == "almost-radiation"


def test_dichotomy_random():
    rng = random.Random(36)
    for _ in range(60):
        kind = rng.randrange(3)
        if kind == 0:
            aut = uniform(random_unimodular(rng, rng.randint(1, 3)))
        elif kind == 1:
            aut = finitary((0, 2), random_unimodular(rng, 2))
        else:
            aut = graded(
                tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(0, 2))) or (2,),
                (7,) if rng.random() < 0.5 else (),
            )
        gen, _ = is_normal_generator(aut)
        rad = is_almost_radiation(aut)
        level = any(lambda_member(aut, m) for m in range(2, 61))
        if isinstance(lambda_levels(aut), DivisorsOf) and lambda_levels(aut).g > 60:
            continue  # outside the sampled level range
        assert gen == (not rad and not level)


def test_uncountable_cofinality_shadow():
    # eventually-uniform, neither generator nor almost-radiation -> finite level set
    rng = random.Random(37)
    for _ in range(40):
        aut = uniform(random_unimodular(rng, rng.randint(1, 3)))
        gen, _ = is_normal_generator(aut)
        if not gen and not is_almost_radiation(aut):
            assert isinstance(lambda_levels(aut), DivisorsOf)


# -- nu sets ------------------------------------------------------------------


def test_nu_set_examples():
    assert nu_set(u_shear(6)) == FinitePrimes(frozenset({2, 3}))
    d = nu_set(graded((), (7,)))
    assert d == UnionWithPrefix(frozenset(), frozenset({7}))
    assert d.contains(2) and d.contains(5) and not d.contains(7)
    assert nu_set(identity_aut()) == UnionWithPrefix(frozenset(), frozenset())
    assert nu_set(tau_power(1)) == FinitePrimes(frozenset())


def test_nu_consistency():
    rng = random.Random(38)
    samples = [
        u_shear(6),
        u_shear(10),
        uniform(random_unimodular(rng, 2)),
        graded((2,), (5,)),
        graded((), (3, 7)),
        finitary((1,), IntMatrix.from_rows([[-1]])),
    ]
    for aut in samples:
        desc = nu_set(aut)
        for p in primes_upto(50):
            assert desc.contains(p) == lambda_member(aut, p)


# -- common level --------------------------------------------------------------


def test_common_level_gcd():
    assert common_lambda_level([u_shear(6), u_shear(10)]) == 2


def test_common_level_none():
    assert common_lambda_level([u_shear(2), u_shear(3)]) is None


def test_common_level_all_sentinel():
    rng = random.Random(39)
    out = common_lambda_level([finitary((0, 1), random_unimodular(rng, 2))])
    assert out == 0


def test_common_level_with_rule():
    assert common_lambda_level([u_shear(6), graded((2, 3), ())]) == 6
    assert common_lambda_level([u_shear(4), graded((2, 3), ())]) == 2
    # rules only: largest common level within the documented bound
    # (prefix product 6 times largest named prime 3 = 18) is the prime 17
    assert common_lambda_level([graded((2,), ()), graded((3,), ())]) == 17


def test_common_level_with_every_level():
    rng = random.Random(40)
    f = finitary((0, 1), random_unimodular(rng, 2))
    # g = 0 takes the rules-only path: bound 6 * 3 = 18, largest level 17
    assert common_lambda_level([f, graded((2, 3), ())]) == 17
    assert common_lambda_level([f, u_shear(6)]) == 6


def test_common_level_disjoint_supports():
    # nu sets {5} and all-primes-except-{5} are disjoint; no common level
    assert common_lambda_level([u_shear(5), graded((), (5,))]) is None
    assert common_lambda_level([u_shear(15), graded((), (3, 5))]) is None


GRADED_RULES = st.builds(
    graded,
    st.lists(st.integers(2, 40), max_size=3),
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])),
    st.booleans(),
)


@settings(max_examples=300)
@given(st.integers(2, 10**4), st.lists(GRADED_RULES, min_size=1, max_size=2))
def test_common_level_with_rules_matches_the_divisor_scan(g, blocks):
    rules = [lambda_levels(b) for b in blocks]
    assert common_lambda_level([u_shear(g), *blocks]) == divisor_scan_level(g, rules)


def test_common_level_of_a_semiprime_gcd_is_quick():
    """g = (10^9 + 7)(10^9 + 9) is factorized once, not walked for its
    divisors by trial division up to 10^9."""
    proc = run_child(
        ["-c", "from infrank.autrep import graded, uniform\n"
               "from infrank.classify import common_lambda_level\n"
               "from infrank.intmat import IntMatrix\n"
               "shear = uniform(IntMatrix.from_rows([[1, 1000000016000000063], [0, 1]]))\n"
               "print(common_lambda_level([shear, graded((2,), ())]))"],
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1000000016000000063\n", "")


# -- ladder -----------------------------------------------------------------


def test_ladder_rung_with_chain():
    rep = ladder_report(u_shear(4))
    assert rep.kind == "rung" and rep.rung == 4
    assert rep.scalar == 1
    assert rep.chain is not None
    assert verify_chain(rep.chain).ok


def test_ladder_almost_radiation():
    rep = ladder_report(finitary((0,), IntMatrix.from_rows([[-1]])))
    assert rep.kind == "almost-radiation" and rep.rung == 0


def test_ladder_generator():
    rep = ladder_report(tau_power(1))
    assert rep.kind == "generator" and rep.rung == 1


def test_ladder_graded_no_maximal():
    rep = ladder_report(graded((2, 3), ()))
    assert rep.kind == "no-maximal-level"
    assert "no maximal level" in rep.note


def test_ladder_non_shear_annotated():
    rep = ladder_report(uniform(IntMatrix.from_rows([[1, 0], [4, 1]])))
    assert rep.kind == "rung" and rep.rung == 4
    assert rep.chain is None
    assert rep.note


def test_canonical_twisted_shear_is_generator():
    # block [[-1,4],[-1,3]] has scalar defect 1: no level admits it
    aut = canonical_shear(3, 4)
    assert scalar_defect(aut.block.matrix) == 1
    ok, _ = is_normal_generator(aut)
    assert ok
    assert ladder_report(aut).kind == "generator"


def test_one_pair_search_per_classified_generator(monkeypatch):
    """The ladder reads its rung from the level set, so only the verdict's
    evidence searches for a pair witness."""
    import infrank.classify as classify_module

    calls = []
    search = classify_module._pair_witness
    monkeypatch.setattr(classify_module, "_pair_witness", lambda a: calls.append(a) or search(a))
    aut = canonical_shear(3, 4)
    info = classification_summary(aut)
    assert info["normal_generator"] and info["ladder"].kind == "generator"
    assert len(calls) == 1
    assert ladder_report(aut) == LadderReport("generator", rung=1)
    assert len(calls) == 1


def test_ladder_kind_follows_the_level_set_over_the_corpus():
    kinds = Counter()
    for aut in build_corpus(random.Random(2029)):
        rep = ladder_report(aut)
        kinds[rep.kind] += 1
        levels = lambda_levels(aut)
        if isinstance(levels, RuleBased):
            assert rep == LadderReport("no-maximal-level", note=NO_MAXIMAL_LEVEL)
            continue
        assert (rep.kind == "generator") == is_normal_generator(aut)[0]
        assert (rep.kind == "almost-radiation") == is_almost_radiation(aut)
        assert rep.rung == levels.g
    assert all(kinds[k] for k in ("generator", "almost-radiation", "rung", "no-maximal-level"))


def test_ladder_shear_with_twist():
    # shear-shaped block with x -> x + 4u but a twisted partner column;
    # scalar defect 2, so the rung is 2, and the chain is built for the
    # conjugate by the basis (C e_u, e_u) of B = I + 2C, whose x column is (2, 1)
    b = IntMatrix.from_rows([[9, 4], [2, 1]])
    assert b.det() == 1
    rep = ladder_report(uniform(b))
    assert rep.kind == "rung" and rep.rung == 2
    assert rep.chain is not None and rep.chain.level == 2
    assert verify_chain(rep.chain).ok
    phi = rep.chain.steps[0].certificates[0].environment["phi"]
    assert phi == uniform(IntMatrix.from_rows([[9, 2], [4, 1]]))


def test_ladder_shear_without_a_conjugate_of_the_rung():
    # x column (18, 217) but rung 6: B = I + 6C with det(v, Cv) = 2a^2 + 36ab - 3b^2,
    # which is not +-1 on any v searched, so no chain is attached
    b = IntMatrix.from_rows([[1, 18], [12, 217]])
    rep = ladder_report(uniform(b))
    assert rep == LadderReport("rung", rung=6, scalar=1, note=LOWER_BOUND_NOT_CONSTRUCTED)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 8),
    k=st.integers(-9, 9),
    shift=st.integers(-3, 3),
    det=st.sampled_from([1, -1]),
)
def test_ladder_chain_witnesses_its_rung(m, k, shift, det):
    """Over uniform 2 x 2 blocks with x column (m, k), gcd(k, m) = 1, and any
    partner column: an attached chain verifies and has the rung as level."""
    g, s, t = xgcd(k, m)
    assume(g == 1)
    block = IntMatrix.from_rows([[det * (s + shift * m), m], [det * (shift * k - t), k]])
    rep = ladder_report(uniform(block))
    if rep.chain is not None:
        assert verify_chain(rep.chain).ok
        assert rep.chain.level == rep.rung


# -- classify output over the criterion-5 corpus --------------------------------

# sha256 of the exit status, stdout and stderr of `infrank classify` on every
# document of the criterion-5 corpus, and with `--window 6` on every 50th,
# recorded before the ladder read its rung from the level set, and again when
# a misaligned window came to be refused before the report: documents 150,
# 300 and 350 refuse `--window 6`, and print nothing now where they printed
# the report before ("059056f9d528..." before)
CLASSIFY_DIGEST = "2629038ff2b3aee40b8ffeb1f2b7fd3f7b619ba094f008f162805f8feac3f987"


def test_classify_output_over_the_corpus_is_unchanged(tmp_path, capsys):
    import hashlib

    doc = tmp_path / "corpus.aut"
    digest = hashlib.sha256()
    for i, aut in enumerate(build_corpus(random.Random(2029))):
        doc.write_text(serialize_aut(aut))
        argvs = [["classify", str(doc)]]
        if i % 50 == 0:
            argvs.append(["classify", str(doc), "--window", "6"])
        for argv in argvs:
            code, out, err = run(argv, capsys)
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == CLASSIFY_DIGEST
