import hashlib
import json
import random
from dataclasses import replace
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrank import intmat, witness
from infrank import words as words_module
from infrank.autrep import (
    compose,
    core_window,
    eventually_uniform,
    finitary,
    head_and_period,
    invert,
    is_claimed,
    uniform,
    window_matrix,
    window_pairs,
)
from infrank.classify import congruence_gcd
from infrank.errors import CompositionUnsupportedError, DimensionError, ShapeError, ValidationError
from infrank.intmat import IntMatrix, is_unimodular_set
from infrank.witness import (
    ChainStep,
    ShearTriple,
    WitnessChain,
    bezout_combine,
    canonical_shear,
    conjugate_product_reduce,
    euler_reduce,
    factor_block_unitriangular,
    km_pipeline,
    order_n_shear,
    shear_order_certificate,
    shear_shape,
    tau_power,
    verify_chain,
    wans_sum_certificate,
    wans_three,
    zaushko_commutator,
)
from infrank.serialize import parse_chain, serialize_certificate, serialize_chain
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
    VerifyResult,
    evaluate_word,
    verify_certificate,
)

import oracles
from oracles import chain_document, solve_columns
from helpers import ModCounter, ProductCounter, random_matrix


# -- tau powers --------------------------------------------------------------


def test_tau_power_block():
    assert tau_power(1).block.matrix == IntMatrix.from_rows([[1, 1], [0, 1]])
    assert tau_power(4).block.matrix == IntMatrix.from_rows([[1, 4], [0, 1]])


def test_tau_power_zero_is_identity_action():
    assert window_matrix(tau_power(0), 4) == IntMatrix.identity(4)


def test_tau_power_congruence():
    assert congruence_gcd(tau_power(4)) == 4
    assert congruence_gcd(tau_power(4)) % 2 == 0


# -- order-n shears -----------------------------------------------------------


def test_shear_n3_matches_printed_matrices():
    for m in range(2, 11):
        t = order_n_shear(3, m)
        assert t.lam == IntMatrix.from_rows(
            [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert t.sigma == IntMatrix.from_rows(
            [[-m, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        assert t.gamma == t.sigma.inverse() * t.lam * t.sigma


def test_shear_lambda_stabilizes_sigma_span():
    for n in (3, 4, 5):
        t = order_n_shear(n, 3)
        r = 2 * n - 2
        span = IntMatrix.from_rows([row[1:] for row in t.sigma.data])
        for j in range(1, r):
            image = t.lam.apply(t.sigma.col(j))
            assert solve_columns(span, image) is not None


def _elementary_conjugate(rng, lam):
    """lam conjugated by one random elementary matrix I + c e_ij."""
    r = lam.rows
    i, j = rng.sample(range(r), 2)
    c = rng.choice([-2, -1, 1, 2])
    e, e_inv = ([[int(a == b) for b in range(r)] for a in range(r)] for _ in range(2))
    e[i][j], e_inv[i][j] = c, -c
    return IntMatrix.from_rows(e) * lam * IntMatrix.from_rows(e_inv)


def test_shear_stabilizer_check_matches_solve_columns():
    """With gamma kept, only the stabilizer check can refuse a conjugated
    lambda, and it refuses exactly when some image of sigma e_j (j > 1)
    leaves the span that ``solve_columns`` searches."""
    rng = random.Random(41)
    refused = kept = 0
    for n in range(3, 7):
        for m in (2, 3, 5):
            t = order_n_shear(n, m)
            span = IntMatrix.from_rows([row[1:] for row in t.sigma.data])
            for _ in range(30):
                lam = _elementary_conjugate(rng, t.lam)
                outside = any(
                    solve_columns(span, lam.apply(t.sigma.col(j))) is None
                    for j in range(1, t.sigma.rows)
                )
                try:
                    witness._check_shear_triple(replace(t, lam=lam))
                except ValidationError as exc:
                    assert outside and "stabilize" in str(exc)
                    refused += 1
                else:
                    assert not outside
                    kept += 1
    assert refused and kept


def test_shear_order_certificate():
    for n in (2, 3, 4, 5):
        t = order_n_shear(n, 3)
        cert = shear_order_certificate(t)
        r = t.gamma.rows
        assert cert.windows == (r, 2 * r) and cert.order == n
        assert verify_certificate(cert).ok
    t = order_n_shear(4, 3)
    squared = ShearTriple(4, 3, t.lam, t.sigma, t.gamma * t.gamma, t.shear)
    res = verify_certificate(shear_order_certificate(squared))
    assert not res.ok
    assert "order divides 2" in res.report[0]


def test_shear_rejects_bad_args():
    with pytest.raises(ValueError):
        order_n_shear(1, 3)
    with pytest.raises(ValueError):
        order_n_shear(3, 1)


# -- commutator shear ---------------------------------------------------------


def test_zaushko_negation():
    sigma, word, cert = zaushko_commutator(IntMatrix.from_rows([[-1]]))
    # sigma(y_0) = y_0 + 2 x_0
    assert window_matrix(sigma, 2).col(1) == (2, 1)
    assert verify_certificate(cert).ok


def test_zaushko_identity_rho():
    sigma, _, cert = zaushko_commutator(IntMatrix.identity(3))
    assert window_matrix(sigma, 6) == IntMatrix.identity(6)
    assert verify_certificate(cert).ok


def test_zaushko_swap():
    rho = IntMatrix.from_rows([[0, 1], [1, 0]])
    sigma, word, cert = zaushko_commutator(rho)
    assert verify_certificate(cert).ok
    w = window_matrix(sigma, 4)
    # y_i picks up x_i - x_{swap(i)}
    assert w.col(2) == (1, -1, 1, 0)
    assert w.col(3) == (-1, 1, 0, 1)


def test_zaushko_rejects_non_unimodular():
    with pytest.raises(ValidationError):
        zaushko_commutator(IntMatrix.from_rows([[2]]))


# -- sum of three -------------------------------------------------------------


def test_wans_zero_gives_companion_split():
    p = IntMatrix.from_rows([[0, -1], [1, 1]])
    parts = wans_three(IntMatrix.zeros(2, 2))
    assert window_matrix(parts[0], 2) == p
    assert window_matrix(parts[1], 2) == IntMatrix.identity(2).scale(-1)
    assert window_matrix(parts[2], 2) == IntMatrix.identity(2) - p
    assert p.det() == 1 and (IntMatrix.identity(2) - p).det() == 1
    # companion identity x^2 - x + 1 = 0
    assert p * p - p + IntMatrix.identity(2) == IntMatrix.zeros(2, 2)


def test_wans_diag_5_7():
    f = IntMatrix.from_rows([[5, 0], [0, 7]])
    parts = wans_three(f)
    assert sum_windows(parts, 2) == f
    for part in parts:
        assert window_matrix(part, 2).det() in (1, -1)


def sum_windows(parts, n):
    out = IntMatrix.zeros(n, n)
    for p in parts:
        out = out + window_matrix(p, n)
    return out


def test_wans_identity_input():
    parts = wans_three(IntMatrix.identity(2))
    assert sum_windows(parts, 2) == IntMatrix.identity(2)
    for part in parts:
        assert window_matrix(part, 4).det() in (1, -1)


def test_wans_random():
    rng = random.Random(41)
    for _ in range(60):
        d = rng.choice([2, 4, 6])
        f = random_matrix(rng, d, d, bound=9)
        parts = wans_three(f)
        assert sum_windows(parts, d) == f
        zero_ext = IntMatrix.from_rows(
            [list(r) + [0] * d for r in f.data] + [[0] * (2 * d) for _ in range(d)]
        )
        assert sum_windows(parts, 2 * d) == zero_ext
        for part in parts:
            w = window_matrix(part, 2 * d)
            assert w.det() in (1, -1)
            assert w * window_matrix(part, 2 * d).inverse() == IntMatrix.identity(2 * d)
        cert = wans_sum_certificate(f, parts)
        assert verify_certificate(cert).ok


def test_wans_tails_fixed():
    p = IntMatrix.from_rows([[0, -1], [1, 1]])
    parts = wans_three(IntMatrix.from_rows([[3, 1], [2, 9]]))
    assert parts[0].block.matrix == p
    assert parts[1].block.matrix == IntMatrix.identity(2).scale(-1)
    assert parts[2].block.matrix == IntMatrix.identity(2) - p


def test_wans_rejects_odd_dimension():
    with pytest.raises(DimensionError):
        wans_three(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


# -- three-conjugate factorization ---------------------------------------------


def test_factor_zero_is_identity():
    word, cert = factor_block_unitriangular(2, IntMatrix.zeros(2, 2))
    assert verify_certificate(cert).ok
    assert evaluate_word(word, cert.environment, 4) == IntMatrix.identity(4)


def test_factor_identity_z_reproduces_shear():
    word, cert = factor_block_unitriangular(3, IntMatrix.identity(2))
    assert verify_certificate(cert).ok
    got = evaluate_word(word, cert.environment, 4)
    want = IntMatrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 3, 0, 1]]
    )
    assert got == want


def test_factor_example_passes_both_windows():
    word, cert = factor_block_unitriangular(2, IntMatrix.from_rows([[2, 1], [0, 1]]))
    assert cert.windows == (4, 8)
    assert verify_certificate(cert).ok


def test_factor_word_is_three_conjugates():
    word, cert = factor_block_unitriangular(2, IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert len(word.factors) == 3
    assert all(isinstance(f, Conj) for f in word.factors)


def test_factor_conjugators_fix_x_and_preserve_y():
    word, cert = factor_block_unitriangular(2, IntMatrix.from_rows([[4, 1], [2, 3]]))
    env = cert.environment
    d = 2
    n = 8  # two 2d-blocks, x-coordinates first in each
    for name in ("sigma1", "sigma2", "sigma3"):
        w = window_matrix(env[name], n)
        for block in range(2):
            base = 2 * d * block
            for i in range(d):
                assert w.col(base + i) == tuple(
                    1 if j == base + i else 0 for j in range(n)
                )
            for i in range(d):
                col = w.col(base + d + i)
                for j in range(n):
                    if col[j] and not (base + d <= j < base + 2 * d):
                        raise AssertionError(f"{name} moves y out of its block")


def test_factor_rejects_small_modulus():
    with pytest.raises(ValueError):
        factor_block_unitriangular(1, IntMatrix.zeros(2, 2))


# -- coefficient bookkeeping -----------------------------------------------------


def test_conjugate_product_examples():
    r = conjugate_product_reduce([(3, 2)])
    assert (r.k, r.m, r.coefficients) == (3, 2, (2,))
    r = conjugate_product_reduce([(5, 4), (3, 4)])
    assert (r.k, r.coefficients, r.m) == (15, (12, 4), 4)
    r = conjugate_product_reduce([(1, 6), (1, 10), (1, 15)])
    assert r.coefficients == (6, 10, 15)
    assert r.m == 1


def test_conjugate_product_rejects_non_coprime():
    with pytest.raises(ValueError):
        conjugate_product_reduce([(2, 4)])
    with pytest.raises(ValueError):
        conjugate_product_reduce([(3, 1)])


def test_euler_reduce():
    assert euler_reduce(3, 4) == 2
    assert euler_reduce(1, 7) == 6
    assert euler_reduce(5, 12) == 4
    assert pow(5, 4, 12) == 1
    with pytest.raises(ValueError):
        euler_reduce(2, 4)


def test_bezout_combine_examples():
    with pytest.raises(ValueError):
        bezout_combine(2, 3, 3)


# -- pipeline ---------------------------------------------------------------------


def test_shear_shape():
    assert shear_shape(tau_power(4)) == (1, 4)
    assert shear_shape(canonical_shear(3, 4)) == (3, 4)
    assert shear_shape(tau_power(1)) is None  # m = 1 below threshold
    from infrank.autrep import uniform

    assert shear_shape(uniform(IntMatrix.from_rows([[0, 1], [1, 0]]))) is None


def test_pipeline_clean_tau2():
    chain = km_pipeline(tau_power(2))
    assert isinstance(chain, WitnessChain)
    assert chain.level == 2
    assert [s.name for s in chain.steps] == [
        "euler-gcd-reduction",
        "order-2-shear-conjugation",
        "order-3-shear-conjugation",
        "bezout-combination",
    ]
    assert verify_chain(chain).ok
    assert chain.final == tau_power(2)


def test_pipeline_clean_reproduces_tau_m():
    chain = km_pipeline(tau_power(5), coprime=(2, 3))
    last = chain.steps[-1]
    got = evaluate_word(last.word, last.certificates[0].environment, 4)
    assert got == window_matrix(tau_power(5), 4)


def test_pipeline_general_3_4():
    phi = canonical_shear(3, 4)
    chain = km_pipeline(phi)
    assert chain.level == 4
    assert verify_chain(chain).ok
    note = chain.steps[0].note
    assert "k^ell = 9" in note
    assert "gcd 4" in note


def test_pipeline_general_5_6():
    chain = km_pipeline(canonical_shear(5, 6))
    assert chain.level == 6
    assert verify_chain(chain).ok


def test_pipeline_twisted_k1():
    chain = km_pipeline(__import__("infrank.autrep", fromlist=["uniform"]).uniform(
        IntMatrix.from_rows([[9, 4], [2, 1]])
    ))
    assert chain.level == 4
    assert verify_chain(chain).ok


def test_pipeline_rejects_non_shear():
    from infrank.autrep import uniform

    with pytest.raises(ShapeError):
        km_pipeline(uniform(IntMatrix.from_rows([[0, 1], [1, 0]])))
    with pytest.raises(ValueError):
        km_pipeline(tau_power(2), coprime=(2, 4))


def test_pipeline_tracked_pair_unimodular():
    chain = km_pipeline(canonical_shear(3, 2), coprime=(2, 3))
    # the final action certificates pin x0 -> x0 + m p with p fixed
    final = chain.steps[-1]
    action = final.certificates[0]
    vec = list(action.vector)
    tgt = list(action.target_vector)
    diff = [t - v for v, t in zip(vec, tgt)]
    assert sum(1 for x in diff if x) == 1
    assert [x for x in diff if x] == [chain.level]
    cols = IntMatrix.from_rows([[vec[i], diff[i] // chain.level] for i in range(len(vec))])
    assert is_unimodular_set(cols)


@given(st.lists(st.integers(-6, 6), min_size=4, max_size=8))
def test_tracked_pair_minors_agree_with_the_smith_form(z):
    """[e_1 | z] is unimodular exactly when gcd(z_i : i != 1) = 1, the test
    the pipeline makes on its tracked pair in place of a Smith form."""
    cols = IntMatrix.from_rows([[int(i == 1), zi] for i, zi in enumerate(z)])
    assert is_unimodular_set(cols) == (gcd(*(zi for i, zi in enumerate(z) if i != 1)) == 1)


def _solo_reports(chain):
    ok, lines = True, []
    for step in chain.steps:
        for cert in step.certificates:
            res = verify_certificate(cert)
            ok = ok and res.ok
            lines.extend(f"{step.name}: {line}" for line in res.report)
    return ok, tuple(lines)


def test_verify_chain_matches_solo_checks():
    chain = km_pipeline(canonical_shear(3, 4))
    for c in (chain, parse_chain(serialize_chain(chain))):
        res = verify_chain(c)
        assert (res.ok, res.report) == _solo_reports(c) == (True, res.report)


def test_verify_chain_memo_keys_on_the_environment():
    # one word object, two environments that differ in the atom "b"
    word = Product((Named("a"), Named("b")))
    a, b = tau_power(1), tau_power(2)
    certs = [
        Certificate(kind=WINDOW_IDENTITY, windows=(2, 4), environment={"a": a, "b": b_atom},
                    word=word, target_aut=tau_power(3))
        for b_atom in (b, tau_power(5))
    ]
    chain = WitnessChain((ChainStep("shared-word", word, tuple(certs)),), tau_power(3), 3, "")
    assert [verify_certificate(c).ok for c in certs] == [True, False]
    res = verify_chain(chain)
    assert not res.ok
    assert res.report == _solo_reports(chain)[1]
    assert res.report[2] == "shared-word: window 2: MISMATCH at entry (0,1): got 6, expected 3"


def test_verify_chain_tampered_action_mismatch():
    text = serialize_chain(km_pipeline(canonical_shear(5, 4)))
    obj = json.loads(text)
    vec = obj["steps"][-1]["certificates"][0]["target_vector"]
    vec[next(i for i, x in enumerate(vec) if x)] += 1
    tampered = parse_chain(json.dumps(obj))
    res = verify_chain(tampered)
    assert not res.ok
    assert res.report == _solo_reports(tampered)[1]
    assert [line for line in res.report if "MISMATCH" in line] == [
        "bezout-combination: window 72: MISMATCH at coordinate 1: got 1, expected 2",
        "bezout-combination: window 144: MISMATCH at coordinate 1: got 1, expected 2",
    ]


def test_verify_chain_keeps_no_cache(monkeypatch):
    chain = parse_chain(serialize_chain(km_pipeline(canonical_shear(3, 2))))
    step = chain.steps[-1]
    products = ProductCounter(monkeypatch)
    counts = []
    for _ in range(2):
        products.count = 0
        assert verify_chain(chain).ok
        counts.append(products.count)
        products.count = 0
        cert = step.certificates[0]
        evaluate_word(step.word, cert.environment, cert.windows[0])
        counts.append(products.count)
    assert counts[0] == counts[2] > 0
    assert counts[1] == counts[3] > 0


def test_action_certificates_make_no_products(monkeypatch):
    """In-process, the action claims of a general chain apply the rows the
    build walked, with no product."""
    chain, walks = _built_with_walks(3, 4)
    certs = [cert for step in chain.steps for cert in step.certificates
             if cert.kind == ACTION_ON_VECTOR]
    assert len(certs) == 7
    products = ProductCounter(monkeypatch)
    for cert in certs:
        assert verify_certificate(cert, walks).ok
    assert products.count == 0
    # a power past the window is evaluated densely, then applied
    cert = Certificate(kind=ACTION_ON_VECTOR, windows=(4,), environment={"tau": tau_power(1)},
                       word=Power(Named("tau"), 5), vector=(0, 1), target_vector=(5, 1))
    assert verify_certificate(cert).ok
    assert products.count > 0


def test_chain_certificates_stay_on_their_first_window(monkeypatch):
    chain = km_pipeline(canonical_shear(3, 4))
    certs = [
        cert
        for c in (chain, parse_chain(serialize_chain(chain)))
        for step in c.steps
        for cert in step.certificates
    ]
    assert {cert.kind for cert in certs} == {WINDOW_IDENTITY, ORDER, ACTION_ON_VECTOR}
    for cert in certs:
        products = ProductCounter(monkeypatch)
        assert verify_certificate(cert).ok
        assert products.largest <= cert.windows[0]


# sha256 and length of serialize_chain(km_pipeline(canonical_shear(k, m), pair)),
# recorded before identity and order claims were checked on the core window
CHAIN_DIGESTS = [
    (3, 4, (2, 3), 87827, "9fe9fbd1d429a9124267f631d8a1689dddf3b91c28b003a1a3ebae196dbfe03e"),
    (-3, 4, (2, 3), 88034, "62eff19ba8cb31f495256d67e36ee44fff5a20a55bbdab238327a4876f4ebc15"),
    (2, 5, (2, 3), 226323, "fff63705e04559f16f0d5a3448fdde1da94d89b20592ff16619b5eb3d914b658"),
    (3, 8, (2, 3), 282586, "d553b426e4e567a66973f876e442c979a7f547c6854bbb04e343432d3465b6a1"),
    (1, 3, (2, 3), 2164, "23e89583dd62cc73620d08f54f73b2599cee13110053e7ed1bc1f0952167f168"),
    (3, 4, (2, 5), 178422, "9645c1b23367f7636bb36da104b2d4b87af092f5f985274ffc9008b33c194268"),
    # b < 0, recorded before psi, phi_n and final came to be walked from words
    (3, 4, (3, 2), 85661, "70c3bfece1503f2252bb9a1653e0717dd7dbff93ab812caf90fc0b086508bec5"),
    (-3, 4, (4, 3), 182871, "f42206b17d6f5a47bc93c976e4d5d6ec012c0aacbdf5bb913c6a35944e60d46c"),
    # ell = phi(11) = 10, the longest psi pinned, recorded before psi and
    # phi_n came to be walked from the steps' own words
    (3, 11, (2, 3), 2642922, "c12b475c27a557c81229274d78895940b621c5319cccced9009ec3a98c5b4f67"),
]


@pytest.mark.parametrize(
    "k, m, pair, size, digest",
    CHAIN_DIGESTS,
    ids=[f"k{k}-m{m}-pair{a},{b}" for k, m, (a, b), _, _ in CHAIN_DIGESTS],
)
def test_chain_bytes_are_unchanged(k, m, pair, size, digest):
    """The chain's bytes, which are also the one-pass encoding of the chain
    as built and as parsed back: ``serialize_chain`` splices each
    environment's text in exactly."""
    chain = km_pipeline(canonical_shear(k, m), pair)
    text = serialize_chain(chain)
    data = text.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    back = parse_chain(text)
    assert chain_document(chain) == chain_document(back) == serialize_chain(back) == text


# matrix products and atom window reads of km_pipeline(canonical_shear(k, m)),
# which builds and verifies, and of verify_chain on the chain parsed back,
# recorded when psi and each phi_n came to be walked from the steps' own
# words and km_pipeline came to hand the build's walks to its check, which
# then shares them across steps ((71, 45) before, and (7, 7) for the clean
# chain; (71, 24) and (40, 22) before the general scope's psi, phi_n and
# final were walked from words, with 31 and 3 more reads made outside the
# walk; (74, 24) before each phi_n came from forward products; (75, 26) and
# (40, 24) before the certificates of a step came to share their walks and
# the general final came from one product).  The clean parsed chain reads
# (5, 6) since each step's walks start from the rows of the earlier steps'
# words: its Bezout identity claim on window 4 reads Power(phi, n2) off
# step 3, where it read phi and made the two products of phi^3 ((7, 7) before).
# The general chains went from (64, 30) built and (40, 25) parsed to
# (46, 20) and (22, 15) when the walk came to read products free-reduced and
# each product inside a product on its core window: psi is read on window 6
# alone, and its windows 24 and 36 repeat those rows, which saves its five
# products on each and the ten reads of phi, h1, h2 and their inverses there;
# w2 and w3 are read as lam psi lam psi lam^-2 and lam psi lam psi lam psi
# lam^-3, two and six products fewer.  The clean chain went from (7, 5) built
# and (5, 6) parsed to (3, 4) for both: the Bezout word is read as phi^1,
# with no product, and a parsed check holds phi's rows from step 2 on,
# since the later steps read phi, so it reads phi once.
#
# A general build makes three products more than (46, 20) since each
# completion G comes with its inverse diag(v, I) * u (two products) and
# lam3 with its inverse lam3^2 (one; lam2 is its own inverse); the parsed
# figures do not move.
#
# A general build went from (49, 20) to (48, 15) when final came to be the
# walked Bezout word, whose rows the check's final link then reads with no
# product: the build no longer reads phi1 and phi2 to multiply them, and the
# link no longer reads final, phi1 and phi2 or makes phi1^|a| final.  The
# parsed figures do not move.
#
# A general parsed check went from (22, 15) to (32, 13) when action claims
# came to apply the word's walked rows and the parsed final link came to
# compare final with them: the Bezout step walks w1^a w2^b where it pushed
# its vectors letter by letter, and the link reads neither phi1 nor final,
# nor multiplies phi1^|a| final.
WALK_COUNTS = [
    (5, 4, (48, 15), (32, 13)),
    (3, 4, (48, 15), (32, 13)),
    (7, 6, (48, 15), (32, 13)),
    (1, 5, (3, 4), (3, 4)),
]


@pytest.mark.parametrize("k, m, built, parsed", WALK_COUNTS)
def test_chain_walks_read_each_subtree_once(monkeypatch, k, m, built, parsed):
    products = ProductCounter(monkeypatch)
    reads = []
    read = words_module.window_pairs
    monkeypatch.setattr(words_module, "window_pairs", lambda a, n: reads.append(n) or read(a, n))
    chain = km_pipeline(canonical_shear(k, m))
    assert (products.count, len(reads)) == built
    back = parse_chain(serialize_chain(chain))
    products.count, reads[:] = 0, []
    assert verify_chain(back).ok
    assert (products.count, len(reads)) == parsed


def test_only_the_pipeline_hands_its_walks_to_the_check(monkeypatch):
    """verify_chain on a built chain, without the build's walks, walks every
    word again, as it does a parsed chain (``WALK_COUNTS``, parsed), and so
    catches a phi_n target that is off by one in one block entry."""
    chain = km_pipeline(canonical_shear(5, 4))
    products = ProductCounter(monkeypatch)
    reads = []
    read = words_module.window_pairs
    monkeypatch.setattr(words_module, "window_pairs", lambda a, n: reads.append(n) or read(a, n))
    assert verify_chain(chain).ok
    assert (products.count, len(reads)) == (32, 13)
    step = chain.steps[1]
    target = step.certificates[1].target_aut
    rows = [list(row) for row in target.block.matrix.data]
    rows[0][0] += 1
    off = eventually_uniform(target.window, IntMatrix.from_rows(rows), claimed=True)
    certs = list(step.certificates)
    certs[1] = replace(certs[1], target_aut=off)
    steps = list(chain.steps)
    steps[1] = replace(step, certificates=tuple(certs))
    res = verify_chain(replace(chain, steps=tuple(steps)))
    assert not res.ok
    assert any(line.startswith(f"{step.name}: ") and "MISMATCH" in line for line in res.report)


def test_the_in_process_final_link_compares_the_walked_rows():
    """With the build's walks, the general final link compares final's
    window with the rows the walks hold for the Bezout word: final with one
    block entry bumped, still a claimed value, breaks the link there."""
    walks = {}
    chain = witness._pipeline_general(canonical_shear(5, 4), 5, 4, 2, 3, walks)
    assert verify_chain(chain, walks).ok
    final = chain.final
    rows = [list(row) for row in final.block.matrix.data]
    rows[0][0] += 1
    bumped = eventually_uniform(final.window, IntMatrix.from_rows(rows), claimed=True)
    res = verify_chain(replace(chain, final=bumped), walks)
    assert not res.ok
    assert res.report[-1] == FINAL_NOT_PRODUCT


def test_no_final_link_multiplies(monkeypatch):
    """The final link reads the rows of the Bezout word that the check's
    walks hold, and makes no product: in km_pipeline's own check, the
    build's rows; in a parsed check, those its Bezout claims walked."""
    products = ProductCounter(monkeypatch)
    counts = []
    link = witness._broken_link

    def counting(chain, walks):
        before = products.count
        out = link(chain, walks)
        counts.append(products.count - before)
        return out

    monkeypatch.setattr(witness, "_broken_link", counting)
    chain = km_pipeline(canonical_shear(5, 4))
    assert verify_chain(parse_chain(serialize_chain(chain))).ok
    assert counts == [0, 0]


def test_a_parsed_check_reads_the_atoms_of_psi_on_its_core_window_only(monkeypatch):
    """phi, h1 and h2, and their inverses, are read on window 6 alone: the
    conjugation steps repeat step 1's rows of psi out to windows 24 and 36."""
    back = parse_chain(serialize_chain(km_pipeline(canonical_shear(5, 4))))
    env = back.steps[0].certificates[0].environment
    atoms = [env[name] for name in ("phi", "h1", "h2")]
    atoms += [invert(a) for a in atoms]
    windows = []
    read = words_module.window_pairs

    def reading(aut, n):
        if aut in atoms:
            windows.append(n)
        return read(aut, n)

    monkeypatch.setattr(words_module, "window_pairs", reading)
    assert verify_chain(back).ok
    assert windows and set(windows) == {6}


def _built_with_walks(k, m):
    walks = {}
    return witness._pipeline_general(canonical_shear(k, m), k, m, 2, 3, walks), walks


def test_bezout_claims_through_the_build_rows_still_check_their_target():
    """The Bezout step's action claims, applying rows the build walked,
    still compare the image with the target: one bumped coordinate is
    reported on both windows, as the parsed chain reports it."""
    chain, walks = _built_with_walks(5, 4)
    last = chain.steps[-1]
    vec = list(last.certificates[0].target_vector)
    vec[7] += 1
    certs = (replace(last.certificates[0], target_vector=tuple(vec)), *last.certificates[1:])
    tampered = replace(chain, steps=(*chain.steps[:-1], replace(last, certificates=certs)))
    res = verify_chain(tampered, walks)
    assert not res.ok
    for n in (72, 144):
        assert f"bezout-combination: window {n}: MISMATCH at coordinate 7: got 4, expected 5" \
            in res.report
    assert res == verify_chain(parse_chain(serialize_chain(tampered)))


def _wans(rows):
    f = IntMatrix.from_rows(rows)
    return wans_sum_certificate(f, wans_three(f))


# sha256 and length of serialize_certificate of each single-certificate engine,
# recorded before the engines stated their claims through witness._claim
ENGINE_DIGESTS = [
    ("shear-2-4", lambda: shear_order_certificate(order_n_shear(2, 4)),
     200, "49e6699c4054760773e002e2a554dee7aefee9b43cb18ce8acf9e570082e0dbb"),
    ("shear-3-5", lambda: shear_order_certificate(order_n_shear(3, 5)),
     236, "2983d11518b6794b3b89d8f1b3b887197388c81e9abf61ce1c0a482b0af93ce4"),
    ("zaushko-d1", lambda: zaushko_commutator(IntMatrix.from_rows([[-1]]))[2],
     599, "255376de342599c850a849bccbf1c85b5714f69f291e37eda38a510980eb1915"),
    ("zaushko-swap", lambda: zaushko_commutator(IntMatrix.from_rows([[0, 1], [1, 0]]))[2],
     712, "12e9814b7e4bd93c293e03c29905aa22a2760a6b04650c31f4b67df21ce770c9"),
    ("wans-snf", lambda: _wans([[5, 0], [0, 7]]),
     478, "4d65a3e21eb177ba3b0ef66f42b28f3479b8926e1c78fcbcbb12591ec377f8fa"),
    ("wans-direct", lambda: _wans([[1, 0], [0, 0]]),
     434, "1f91827bba1b98e9ea828266b1e434ad4f9f05dedf845aef271a4313be941cce"),
    ("factor", lambda: factor_block_unitriangular(2, IntMatrix.from_rows([[2, 1], [0, 1]]))[1],
     981, "eedbf074b9577f781ad85d2d1a411011d16cd3c9ed9f24bc5e90a400f614c06d"),
    ("bezout", lambda: bezout_combine(5, 3, 5)[1],
     468, "c7a37a508f2d10f50830823565b4a2e6eaf891907bec02f6542a56d4280a011b"),
]


@pytest.mark.parametrize(
    "build, size, digest",
    [case[1:] for case in ENGINE_DIGESTS],
    ids=[case[0] for case in ENGINE_DIGESTS],
)
def test_engine_certificate_bytes_are_unchanged(build, size, digest):
    data = serialize_certificate(build()).encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_wans_digest_cases_cover_both_branches():
    """[[5, 0], [0, 7]] is split through its Smith form; [[1, 0], [0, 0]] is
    taken directly, as f + I - P_hat is unimodular."""
    p_hat = witness._P
    for rows, direct in (([[5, 0], [0, 7]], False), ([[1, 0], [0, 0]], True)):
        f = IntMatrix.from_rows(rows)
        assert (f + IntMatrix.identity(2) - p_hat).is_unimodular() is direct


def _chain_action_certificates(k, m):
    """The action certificates of the built chain, and of the chain parsed back."""
    chain = km_pipeline(canonical_shear(k, m))
    return [
        [cert for step in c.steps for cert in step.certificates if cert.kind == ACTION_ON_VECTOR]
        for c in (chain, parse_chain(serialize_chain(chain)))
    ]


def _dense_verify(cert):
    """``verify_certificate`` with no window reduction at all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words_module, "core_window", lambda atoms, n: None)
        return verify_certificate(cert)


def test_tampered_action_targets_fail_as_dense():
    """Bumping any one target entry, up to the largest window, fails with the
    dense verifier's report on the windows the bumped target fits in."""
    built, parsed = _chain_action_certificates(3, 4)
    assert built == parsed
    for cert, again in zip(built, parsed):
        top = cert.windows[-1]
        target = cert.target_vector + (0,) * (top - len(cert.target_vector))
        for i in range(top):
            bumped = list(target)
            bumped[i] += 1
            change = {"windows": tuple(n for n in cert.windows if n > i),
                      "target_vector": tuple(bumped)}
            res = _dense_verify(replace(cert, **change))
            assert not res.ok
            assert f"MISMATCH at coordinate {i}: got {target[i]}, expected {bumped[i]}" in res.report[0]
            assert verify_certificate(replace(cert, **change)) == res
            assert verify_certificate(replace(again, **change)) == res


def _reducible_action_certificates():
    """Two action claims that reduce, with the core window and period of
    each.  The headed one has a head of 2 before blocks of 2 and a head-free
    block of 3: head 6 and period 6, so windows 30 and 42 reduce to 12; its
    vector fills the core window, repeats one later chunk and leaves the
    last chunk zero.  The mixed one has a finitary atom on coordinates 1
    and 4 and a block of 3: head 6 and period 3, so windows 30 and 60 reduce
    to 9; its vector is zero on the core window."""
    u = uniform(IntMatrix.from_rows([[1, 2, 0], [0, 1, 0], [1, 0, 1]]))
    headed = {
        "h": eventually_uniform(
            IntMatrix.from_rows([[-1, 0], [0, 1]]), IntMatrix.from_rows([[0, 1], [1, 0]])
        ),
        "u": u,
    }
    mixed = {"f": finitary((1, 4), IntMatrix.from_rows([[2, 1], [1, 1]])), "u": u}
    chunk = (1, 0, -2, 0, 0, 3)
    cases = [
        (headed, Product((Named("h"), Conj(Named("u"), Named("h")), Inverse(Named("u")))),
         (1, -1, 2, 0, 0, 5, 0, 3, 0, 0, 0, -1) + chunk * 2 + (0,) * 6, (30, 42), (12, 6)),
        (mixed, Product((Named("f"), Conj(Named("u"), Named("f")))),
         (0,) * 9 + chunk * 3 + (0,) * 3, (30, 60), (9, 3)),
    ]
    return [
        (Certificate(kind=ACTION_ON_VECTOR, windows=windows, environment=env, word=word,
                     vector=v, target_vector=evaluate_word(word, env, windows[0]).apply(v)),
         reduced)
        for env, word, v, windows, reduced in cases
    ]


def test_action_pushes_stay_on_the_core_window(monkeypatch):
    """Every image is taken on a window no larger than the core window, and
    each distinct chunk is mapped once per certificate."""
    built, parsed = _chain_action_certificates(3, 4)
    reducible = []
    for cert, reduced in _reducible_action_certificates():
        split = head_and_period(words_module._claim_atoms(cert))
        assert {core_window(split, n) for n in cert.windows} == {reduced}
        reducible.append(cert)
    pushes = []
    apply = words_module.apply_pairs

    def recording(rows, vector):
        pushes.append((len(rows), tuple(vector)))
        return apply(rows, vector)

    monkeypatch.setattr(words_module, "apply_pairs", recording)
    for cert in built + parsed + reducible:
        pushes.clear()
        assert verify_certificate(cert).ok
        split = head_and_period(words_module._claim_atoms(cert))
        cores = {core_window(split, n)[0] for n in cert.windows}
        assert pushes and all(n in cores for n, _ in pushes)
        assert len(set(pushes)) == len(pushes)
        assert all(any(v) for _, v in pushes)


# -- chain links ------------------------------------------------------------

CLEAN_TEXT = serialize_chain(km_pipeline(canonical_shear(1, 3)))
GENERAL_TEXT = serialize_chain(km_pipeline(canonical_shear(3, 4)))
# genuine chains the foreign steps come from
CLEAN_OTHER = json.loads(serialize_chain(km_pipeline(canonical_shear(1, 5))))
GENERAL_OTHER = json.loads(serialize_chain(km_pipeline(canonical_shear(5, 4))))
SHEAR5 = {"block": [[1, 5], [0, 1]], "variant": "uniform", "window": []}


def _edit(**fields):
    return lambda obj: obj.update(fields)


def _swap_steps(i, j):
    def edit(obj):
        steps = obj["steps"]
        steps[i], steps[j] = steps[j], steps[i]

    return edit


def _foreign_step(i, other):
    def edit(obj):
        obj["steps"][i] = other["steps"][i]

    return edit


def _claim_on_window_0(obj):
    """Claim tau^5 for the Bezout word on window 0 alone, where it holds."""
    cert = obj["steps"][-1]["certificates"][0]
    cert["windows"], cert["target_aut"] = [0], SHEAR5
    obj.update(final=SHEAR5, level=5)


def _words_over_another_atom(obj):
    """The (1,5) chain with its words over a new atom t = tau^5 and phi =
    tau^3 in every environment: each certificate holds, and the chain would
    claim level 5 for tau^3."""
    other = json.loads(json.dumps(CLEAN_OTHER).replace('"name": "phi"', '"name": "t"'))
    phi = json.loads(CLEAN_TEXT)["steps"][0]["certificates"][0]["env"]["phi"]
    for step in other["steps"]:
        for cert in step["certificates"]:
            cert["env"] = {"phi": phi, "t": cert["env"]["phi"]}
    obj.clear()
    obj.update(other)


def _rename_step(i, name):
    def edit(obj):
        obj["steps"][i]["name"] = name

    return edit


def _scale_final_row(obj):
    block = obj["final"]["block"]
    block[0] = [2 * x for x in block[0]]


def _headed_final(obj):
    """final with an identity head window of one block, which widens the core
    window of phi1 and phi2."""
    d = len(obj["final"]["block"])
    obj["final"]["window"] = [[int(i == j) for j in range(d)] for i in range(d)]


def _claims_on_one_coordinate(obj):
    claims = obj["steps"][-1]["certificates"]
    claims[1] = claims[0]


FINAL_NOT_TARGET = "broken link: final is not the target of bezout-combination"
FINAL_NOT_PRODUCT = "broken link: final is not phi1^a phi2^b over the conjugation steps' targets"
NOT_ONE_ENV = "broken link: the certificates are not stated over one environment"
NOT_BEZOUT = "broken link: the word of {} is not w1^a w2^b over the conjugation steps' words"
NO_TRACKED_PAIR = "broken link: level 4 is not the modulus the chain derives (None)"
MISNAMED = (
    "broken link: the steps are not named euler-gcd-reduction, order-2-shear-conjugation, "
    "order-3-shear-conjugation, bezout-combination"
)

# chains whose certificates all verify but whose links do not, with the one
# report line each adds
BROKEN_CHAINS = [
    ("clean-swapped-final", CLEAN_TEXT, _edit(final=SHEAR5, level=5), FINAL_NOT_TARGET),
    ("clean-singular-final", CLEAN_TEXT,
     _edit(final={"block": [[2, 0], [0, 1]], "variant": "uniform", "window": []}),
     FINAL_NOT_TARGET),
    ("clean-level", CLEAN_TEXT, _edit(level=7),
     "broken link: level 7 is not the modulus the chain derives (3)"),
    ("clean-foreign-step", CLEAN_TEXT, _foreign_step(2, CLEAN_OTHER), NOT_ONE_ENV),
    ("clean-reordered-steps", CLEAN_TEXT, _swap_steps(1, 2),
     NOT_BEZOUT.format("bezout-combination")),
    ("clean-last-step-moved", CLEAN_TEXT, _swap_steps(0, 3),
     NOT_BEZOUT.format("euler-gcd-reduction")),
    ("clean-target-on-window-0", CLEAN_TEXT, _claim_on_window_0, FINAL_NOT_TARGET),
    ("clean-words-over-another-atom", CLEAN_TEXT, _words_over_another_atom,
     "broken link: the word of euler-gcd-reduction is not in the normal closure of phi"),
    ("clean-scope", CLEAN_TEXT, _edit(scope_note="x"),
     "broken link: the scope note names neither pipeline scope"),
    ("clean-renamed-step", CLEAN_TEXT, _rename_step(1, "order-1-shear-conjugation"),
     MISNAMED),
    ("general-swapped-final", GENERAL_TEXT, _edit(final=SHEAR5, level=5), FINAL_NOT_PRODUCT),
    ("general-shear-final", GENERAL_TEXT,
     _edit(final={"block": [[1, 4], [0, 1]], "variant": "uniform", "window": []}),
     FINAL_NOT_PRODUCT),
    ("general-singular-final", GENERAL_TEXT, _scale_final_row, FINAL_NOT_PRODUCT),
    ("general-finitary-final", GENERAL_TEXT,
     _edit(final={"matrix": [[0, 1], [1, 0]], "support": [0, 1], "variant": "finitary"}),
     FINAL_NOT_PRODUCT),
    ("general-headed-final", GENERAL_TEXT, _headed_final, FINAL_NOT_PRODUCT),
    ("general-claim-dropped", GENERAL_TEXT, lambda obj: obj["steps"][-1]["certificates"].pop(),
     NO_TRACKED_PAIR),
    ("general-claims-on-one-coordinate", GENERAL_TEXT, _claims_on_one_coordinate,
     NO_TRACKED_PAIR),
    ("general-level", GENERAL_TEXT, _edit(level=2),
     "broken link: level 2 is not the modulus the chain derives (4)"),
    ("general-foreign-step", GENERAL_TEXT, _foreign_step(1, GENERAL_OTHER), NOT_ONE_ENV),
    ("general-reordered-steps", GENERAL_TEXT, _swap_steps(1, 2),
     NOT_BEZOUT.format("bezout-combination")),
    ("general-scope-swapped", GENERAL_TEXT, _edit(scope_note=witness.SCOPE_NOTE_CLEAN),
     FINAL_NOT_TARGET),
    ("general-step-dropped", GENERAL_TEXT, lambda obj: obj["steps"].pop(0),
     "broken link: the chain has 3 steps, not the pipeline's 4"),
    ("general-renamed-step", GENERAL_TEXT, _rename_step(2, "order-2-shear-conjugation"),
     MISNAMED),
]


@pytest.mark.parametrize(
    "text, edit, line", [case[1:] for case in BROKEN_CHAINS], ids=[c[0] for c in BROKEN_CHAINS]
)
def test_chains_with_a_broken_link_are_refused(text, edit, line):
    """Every certificate still verifies on its own, so the report is the solo
    one plus one line that names the broken link."""
    obj = json.loads(text)
    edit(obj)
    chain = parse_chain(json.dumps(obj))
    solo_ok, solo_lines = _solo_reports(chain)
    assert solo_ok
    assert verify_chain(chain) == words_module.VerifyResult(False, solo_lines + (line,))


def test_foreign_steps_come_from_verified_chains():
    for text, other in ((CLEAN_TEXT, CLEAN_OTHER), (GENERAL_TEXT, GENERAL_OTHER)):
        assert verify_chain(parse_chain(json.dumps(other))).ok
        assert [json.loads(text)["steps"][i] != other["steps"][i] for i in range(4)] == [True] * 4


def test_links_read_no_inverse(monkeypatch):
    """The general final link inverts no matrix and no claimed value: the
    walk of the Bezout word inverts atoms, whose inverse witnesses are
    swapped in."""
    chain = parse_chain(GENERAL_TEXT)
    monkeypatch.setattr(IntMatrix, "inverse", None)
    monkeypatch.setattr(intmat, "_unimodular_inverse", None)
    assert witness._broken_link(chain) is None


def _claimed_slots(obj):
    """The final and every target of a chain object, as the dicts to edit."""
    steps = obj["steps"]
    return [obj["final"]] + [c["target_aut"] for s in steps for c in s["certificates"]
                             if "target_aut" in c]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_unimodular_claimed_values_never_verify(data):
    """A target or the final of a written chain replaced by a matrix of the
    same shape that is not unimodular fails to verify: a small block by any
    such matrix, any block by one row scaled by 0 or |k| >= 2."""
    text = data.draw(st.sampled_from([CLEAN_TEXT, GENERAL_TEXT]), label="chain")
    obj = json.loads(text)
    slots = _claimed_slots(obj)
    slot = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    block = slot["block"]
    d = len(block)
    if d <= 4 and data.draw(st.booleans(), label="any matrix"):
        entries = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
        rows = data.draw(st.lists(entries, min_size=d, max_size=d).filter(
            lambda rows: IntMatrix.from_rows(rows).det() not in (1, -1)))
        block[:] = rows
    else:
        i = data.draw(st.integers(0, d - 1), label="row")
        k = data.draw(st.sampled_from([0, 2, -2, 3]), label="scale")
        block[i] = [k * x for x in block[i]]
    assert not verify_chain(parse_chain(json.dumps(obj))).ok


def _verify_each(chain):
    """``verify_chain`` with every certificate verified on its own, sharing no walk."""
    ok, lines = _solo_reports(chain)
    broken = witness._broken_link(chain) if ok else None
    return (ok, lines) if broken is None else (False, (*lines, f"broken link: {broken}"))


def _target_mutants(cert):
    """cert with one entry moved by +-1: any entry of its target vector, or
    an entry of the first row, the last row or the diagonal of its target's
    block (the chains' targets have no head window)."""
    for delta in (1, -1):
        vec = cert.target_vector or ()
        for i in range(len(vec)):
            yield replace(cert, target_vector=vec[:i] + (vec[i] + delta,) + vec[i + 1 :])
        if cert.target_aut is None:
            continue
        rows = [list(row) for row in cert.target_aut.block.matrix.data]
        d = len(rows)
        for i, j in {*((0, j) for j in range(d)), *((d - 1, j) for j in range(d)),
                     *((i, i) for i in range(d))}:
            rows[i][j] += delta
            block = IntMatrix.from_rows(rows)
            rows[i][j] -= delta
            target = eventually_uniform(cert.target_aut.window, block, claimed=True)
            yield replace(cert, target_aut=target)


@pytest.mark.parametrize("phi", [tau_power(3), canonical_shear(3, 2)], ids=["clean-3", "k3-m2"])
def test_shared_walks_report_as_each_certificate_alone(phi):
    """verify_chain, whose steps share walks, reports the lines that verifying
    each certificate on its own gives, on each step of the parsed chain with
    one target entry moved by +-1 (``test_verify_chain_matches_solo_checks``
    covers genuine chains)."""
    back = parse_chain(serialize_chain(km_pipeline(phi)))
    mutants = 0
    for step in back.steps:
        for c, cert in enumerate(step.certificates):
            for mutant in _target_mutants(cert):
                certs = step.certificates[:c] + (mutant,) + step.certificates[c + 1 :]
                one = replace(back, steps=(replace(step, certificates=certs),))
                res = verify_chain(one)
                assert (res.ok, res.report) == _verify_each(one)
                mutants += 1
    assert mutants > 0


def test_shared_walks_are_keyed_by_environment():
    """Certificates of one step whose words are one token share a walk only
    over the same atoms: the action claim over y does not read x's rows."""
    x, y, word = tau_power(2), tau_power(3), Named("a")
    certs = (
        Certificate(kind=WINDOW_IDENTITY, windows=(2,), environment={"a": x}, word=word,
                    target_aut=x),
        *(Certificate(kind=ACTION_ON_VECTOR, windows=(2,), environment={"a": atom}, word=word,
                      vector=(0, 1), target_vector=(3, 1)) for atom in (y, x)),
    )
    chain = WitnessChain((ChainStep("s", word, certs),), x, 2, "")
    res = verify_chain(chain)
    assert (res.ok, res.report) == _verify_each(chain) == (False, (
        "s: window 2: identity holds",
        "s: window 2: action holds",
        "s: window 2: MISMATCH at coordinate 0: got 2, expected 3",
    ))


def test_built_general_final_is_a_claimed_value():
    """The general pipeline's final, the target psi of its reduction step and
    the targets phi_n of its conjugation steps are walked words, read only
    by their windows: compose and invert refuse them."""
    chain = km_pipeline(canonical_shear(3, 4))
    targets = [step.certificates[i].target_aut for step, i in zip(chain.steps, (0, 1, 1))]
    for value in (chain.final, *targets):
        assert is_claimed(value)
        for use in (lambda f: compose(f, f), invert):
            with pytest.raises(CompositionUnsupportedError):
                use(value)
    assert not is_claimed(km_pipeline(tau_power(4)).final)


GENERAL_CHAINS = [(k, m, pair) for k, m, pair, _, _ in CHAIN_DIGESTS if k != 1]


@pytest.mark.parametrize(
    "k, m, pair", GENERAL_CHAINS, ids=[f"k{k}-m{m}-pair{a},{b}" for k, m, (a, b) in GENERAL_CHAINS]
)
def test_forward_products_give_the_composed_values(k, m, pair):
    """psi, each phi_n = (lambda_n psi)^n and final = phi_1^a phi_2^b, built
    as walked words, equal the values ``compose`` and ``invert`` gave, as
    atoms and window by window."""
    chain = km_pipeline(canonical_shear(k, m), pair)
    psi, phis, final = oracles.general_chain_values(chain, pair)
    got = [step.certificates[i].target_aut for step, i in zip(chain.steps, (0, 1, 1))]
    for new, old in zip(got + [chain.final], [psi, *phis, final]):
        assert new == old
        d = old.d
        for n in (d, 2 * d, 3 * d):
            assert oracles.dense_window(new, n) == oracles.dense_window(old, n)


@st.composite
def general_shears(draw):
    """(k, m) of a general pipeline: m in {3, 4, 6}, k != 1 with |k| <= 7
    and gcd(k, m) = 1."""
    m = draw(st.sampled_from([3, 4, 6]))
    k = draw(st.integers(-7, 7).filter(lambda k: k != 1 and gcd(k, m) == 1))
    return k, m


@settings(max_examples=20, deadline=None)
@given(general_shears(), st.sampled_from([(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3)]))
def test_the_walked_bezout_word_is_the_dense_final(shear, pair):
    """final, the Bezout word walked, is phi_1^a phi_2^b made by ``compose``
    and ``invert`` on windows d, 2d and 3d, for a < 0 < b and b < 0 < a, and
    |a| = 2 or |b| = 2."""
    chain = km_pipeline(canonical_shear(*shear), pair)
    *_, final = oracles.general_chain_values(chain, pair)
    d = final.d
    for n in (d, 2 * d, 3 * d):
        assert oracles.dense_window(chain.final, n) == oracles.dense_window(final, n)


@cache
def _parsed_general_chain(k, m, pair):
    return parse_chain(serialize_chain(km_pipeline(canonical_shear(k, m), pair)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GENERAL_CHAINS), st.sampled_from([None, "target", "level"]),
       st.sampled_from([0, 1]), st.integers(0, 10**6), st.sampled_from([-1, 1]))
def test_a_parsed_chain_reports_what_its_certificates_report_alone(case, tamper, which, where,
                                                                   delta):
    """A parsed general chain, for either sign of each Bezout exponent, as
    written, with one coordinate of a Bezout target bumped, or with its
    level changed, reports exactly the lines of each certificate checked
    alone, on its own walks, then the link line once they all hold."""
    chain = _parsed_general_chain(*case)
    if tamper == "target":
        last = chain.steps[-1]
        certs = list(last.certificates)
        target = list(certs[which].target_vector)
        target[where % len(target)] += delta
        certs[which] = replace(certs[which], target_vector=tuple(target))
        chain = replace(chain, steps=(*chain.steps[:-1], replace(last, certificates=tuple(certs))))
    elif tamper == "level":
        chain = replace(chain, level=chain.level + delta)
    lines, ok = [], True
    for step in chain.steps:
        for cert in step.certificates:
            alone = verify_certificate(cert)
            ok = ok and alone.ok
            lines += [f"{step.name}: {line}" for line in alone.report]
    assert ok == (tamper != "target")
    broken = witness._broken_link(chain) if ok else None
    assert (broken is not None) == (tamper == "level")
    if broken is not None:
        lines.append(f"broken link: {broken}")
    assert verify_chain(chain) == VerifyResult(tamper is None, tuple(lines))


def test_pipeline_build_inverts_each_matrix_once(monkeypatch):
    """A general (5,4) build and its check make 10 integer inverses, none of
    dimension above 4, so none by a 2-adic lift (18 before the inverses the
    build knows were handed in): the 2 x 2 block of its input phi and phi's
    empty window; the empty window of each of the two swaps h1 and h2,
    whose inverse is a second, equal matrix; gamma (the finitary atom of its
    order certificate) and sigma, shared by its two uses, of the order-2 and
    of the order-3 shear (2 x 2 and 4 x 4); and the empty window of lam2 and
    of lam3.  Each completion G and each lam_n come with their inverses,
    diag(v, I) * u and lam_n^(n-1), which the acceptance rule keeps."""
    calls = []
    orig = intmat._unimodular_inverse
    monkeypatch.setattr(intmat, "_unimodular_inverse", lambda x: calls.append(x) or orig(x))
    mods = ModCounter(monkeypatch)
    km_pipeline(canonical_shear(5, 4))
    assert sorted(c.rows for c in calls) == [0] * 5 + [2] * 3 + [4] * 2
    assert mods.ks == []
