"""Constructive witness engines.

Each engine turns a membership fact about normal closures into explicit
data: a group word over named automorphisms plus certificates that recheck
the claimed identities by exact window arithmetic.  The composite pipeline
``km_pipeline`` starts from a shear-shaped block automorphism
(x -> k x + m u on every pair, gcd(k, m) = 1) and derives, step by step, an
element of its normal closure acting as the standard shear of modulus m on
an explicit unimodular pair family:

1. Euler reduction: a product of conjugates whose x-action has scalar
   k^phi(m) = 1 mod m, with shear coefficients of gcd exactly m;
2. order-n shear conjugation, for two coprime n: an order-n automorphism
   lambda steers (lambda psi)^n into a clean shear by m*n on a tracked
   coordinate pair;
3. a Bezout combination of the two results with exponents a n1 + b n2 = 1.

Engines state every claim through ``_claim``, which sets windows (n, 2n),
except the general pipeline's one-window ``ORDER`` claim on lambda;
``_pair_shear`` states the two action claims of a shear on a tracked
coordinate pair.  Every engine verifies each certificate it returns
exactly once, through ``_checked``, which raises ``ValidationError`` if
one fails, so callers can trust what they receive.  ``verify_chain`` and
``verify_certificate`` are for documents read back from disk;
``verify_chain`` also checks the links that tie a chain's certificates to
its ``final`` and ``level``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Optional, Sequence

from .autrep import (
    EventuallyUniform,
    RepAut,
    eventually_uniform,
    finitary,
    from_window,
    head_and_period,
    uniform,
    window_matrix,
    window_pairs,
)
from .errors import DimensionError, ShapeError, ValidationError
from .intmat import IntMatrix, Pairs, accept_inverse, complete_to_basis, snf
from .numth import euler_phi, xgcd
from .words import (
    ACTION_ON_VECTOR,
    ORDER,
    WINDOW_IDENTITY,
    WINDOW_SUM,
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    Token,
    VerifyResult,
    _walk,
    holds_on_every_window,
    named_atoms,
    verify_certificate,
)


def _require(res: VerifyResult) -> None:
    if not res.ok:
        raise ValidationError("certificate failed its own check: " + "; ".join(res.report))


def _checked(cert: Certificate) -> Certificate:
    """cert, once it has verified; ``ValidationError`` otherwise."""
    _require(verify_certificate(cert))
    return cert


def _claim(env: Mapping[str, RepAut], word: Optional[Token], n: int, **fields) -> Certificate:
    """A claim about word over env, on windows n and 2n."""
    return Certificate(windows=(n, 2 * n), environment=env, word=word, **fields)


def _pair_shear(
    env: Mapping[str, RepAut], word: Token, n: int, x: int, p: int, c: int
) -> tuple[Certificate, ...]:
    """Action claims, on windows n and 2n, that word maps e_x to e_x + c e_p
    and fixes e_p: the shear by c on the tracked pair (x, p)."""
    e_x, e_p = _unit(n, x), _unit(n, p)
    shifted = [a + c * b for a, b in zip(e_x, e_p)]
    return tuple(
        _claim(env, word, n, kind=ACTION_ON_VECTOR, vector=tuple(v), target_vector=tuple(t))
        for v, t in ((e_x, shifted), (e_p, e_p))
    )


# -- elementary shears ----------------------------------------------------


def tau_power(m: int) -> EventuallyUniform:
    """The standard shear of modulus m: every pair (u, x) maps x -> x + m u."""
    if m < 0:
        raise ValueError(f"shear modulus must be >= 0, got {m}")
    return uniform(IntMatrix.from_rows([[1, m], [0, 1]]))


def canonical_shear(k: int, m: int) -> EventuallyUniform:
    """A uniform pair automorphism with x -> k x + m u, gcd(k, m) = 1.

    The partner column is the Bezout completion, so the block is [[s, m],
    [-t, k]] with s k + t m = 1; for k = 1 this is exactly ``tau_power(m)``.
    """
    if m < 2:
        raise ValueError(f"shear modulus must be >= 2, got {m}")
    g, s, t = xgcd(k, m)
    if g != 1:
        raise ValueError(f"k = {k} and m = {m} are not coprime")
    return uniform(IntMatrix.from_rows([[s, m], [-t, k]]))


def shear_shape(aut: RepAut) -> Optional[tuple[int, int]]:
    """(k, m) when aut is a uniform pair automorphism with x -> k x + m u."""
    if not isinstance(aut, EventuallyUniform) or aut.window_size != 0 or aut.d != 2:
        return None
    b = aut.block.matrix
    m, k = b.data[0][1], b.data[1][1]
    if m >= 2 and gcd(k, m) == 1:
        return k, m
    return None


# -- order-n shears --------------------------------------------------------


@dataclass(frozen=True)
class ShearTriple:
    """An order-n automorphism shearing e_1 by m along a recorded direction.

    gamma = sigma^-1 * lambda * sigma has multiplicative order exactly n and
    gamma(e_1) = e_1 + m * shear.  For n >= 3 the matrices are the standard
    2(n-1)-dimensional pair (cyclic lambda, mixing sigma) and the shear
    direction is e_n - e_{n+1}; the rank-2 case n = 2 uses sigma = I and
    shear direction e_2, verified by the same invariants.
    """

    n: int
    m: int
    lam: IntMatrix
    sigma: IntMatrix
    gamma: IntMatrix
    shear: tuple[int, ...]


def order_n_shear(n: int, m: int) -> ShearTriple:
    if n < 2 or m < 2:
        raise ValueError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    if n == 2:
        lam = IntMatrix.from_rows([[1, 0], [m, -1]])
        triple = ShearTriple(2, m, lam, IntMatrix.identity(2), lam, (0, 1))
        _check_shear_triple(triple)
        return triple
    r = 2 * n - 2
    lam_cols: list[list[int]] = []
    for i in range(1, r + 1):  # 1-based basis indices
        col = [0] * r
        if i < n - 1:
            col[i] = 1  # e_{i+1}
        elif i == n - 1:
            for j in range(n - 1):
                col[j] = -1
        else:
            col[i - 1] = 1
        lam_cols.append(col)
    sig_cols: list[list[int]] = []
    for i in range(1, r + 1):
        col = [0] * r
        if i == 1:
            col[0] = -m
            col[n - 1] = 1  # e_n
        elif i <= n - 1:
            col[i - 1] = 1
            col[i + n - 2] = 1  # e_{i+n-1}
        else:
            col[i - n] = 1  # e_{i-n+1}
        sig_cols.append(col)
    lam = IntMatrix.from_rows(list(zip(*lam_cols)))
    sigma = IntMatrix.from_rows(list(zip(*sig_cols)))
    gamma = sigma.inverse() * lam * sigma
    shear = [0] * r
    shear[n - 1] = 1
    shear[n] = -1
    triple = ShearTriple(n, m, lam, sigma, gamma, tuple(shear))
    _check_shear_triple(triple)
    return triple


def shear_order_certificate(t: ShearTriple) -> Certificate:
    """ORDER certificate: gamma, finitary on coordinates 0..r-1, has order n."""
    r = t.gamma.rows
    env = {"gamma": finitary(tuple(range(r)), t.gamma)}
    return _claim(env, Named("gamma"), r, kind=ORDER, order=t.n)


def _check_shear_triple(t: ShearTriple) -> None:
    _checked(shear_order_certificate(t))
    r = t.gamma.rows
    e1 = tuple(1 if i == 0 else 0 for i in range(r))
    want = tuple(e1[i] + t.m * t.shear[i] for i in range(r))
    if t.gamma.apply(e1) != want:
        raise ValidationError("gamma does not shear e_1 as claimed")
    # sigma is unimodular, so lambda stabilizes sigma<e_i : i > 1> exactly when
    # row 0 of sigma^-1 lambda sigma is zero past its first entry
    if any((t.sigma.inverse() * t.lam * t.sigma).data[0][1:]):
        raise ValidationError("lambda does not stabilize sigma<e_i : i > 1>")


# -- commutator shear (one conjugacy class acting on a complementary moiety) --


def zaushko_commutator(rho_x: IntMatrix) -> tuple[EventuallyUniform, Token, Certificate]:
    """From rho acting on X alone, extract sigma with sigma(y_i) = y_i + x_i - rho(x_i).

    Layout: uniform blocks of size 2d, x-coordinates first.  The returned
    word pi * rho^-1 * tau^-1 * rho * tau * pi lies in the normal closure
    of rho and the certificate checks it equals sigma on windows 2d and 4d.
    """
    if not rho_x.is_square:
        raise DimensionError("rho must be square")
    d = rho_x.rows
    if d < 1:
        raise DimensionError("rho must have positive dimension")
    if not rho_x.is_unimodular():
        raise ValidationError("rho is not unimodular")
    eye = IntMatrix.identity(d)
    zero = IntMatrix.zeros(d, d)
    rho = uniform(_block2(rho_x, zero, zero, eye))
    tau = uniform(_block2(eye, zero, eye, eye))
    pi = uniform(_block2(zero, eye, eye, zero))
    sigma = uniform(_block2(eye, eye - rho_x, zero, eye))
    pi_, rho_, tau_ = map(Named, ("pi", "rho", "tau"))
    word = Product((pi_, Inverse(rho_), Inverse(tau_), rho_, tau_, pi_))
    env = {"rho": rho, "tau": tau, "pi": pi}
    cert = _checked(_claim(env, word, 2 * d, kind=WINDOW_IDENTITY, target_aut=sigma))
    return sigma, word, cert


def _block2(a: IntMatrix, b: IntMatrix, c: IntMatrix, d: IntMatrix) -> IntMatrix:
    """[[a, b], [c, d]] as one matrix."""
    top = a.hstack(b)
    bottom = c.hstack(d)
    return IntMatrix(top.data + bottom.data)


# -- sum of three automorphisms -------------------------------------------


_P = IntMatrix.from_rows([[0, -1], [1, 1]])  # companion of x^2 - x + 1, det 1


def wans_three(f: IntMatrix) -> tuple[EventuallyUniform, EventuallyUniform, EventuallyUniform]:
    """Three automorphisms whose sum is f extended by zero.

    Windows (size d) sum to f; the repeating tails are fixed as P, -I and
    I - P, which sum to the zero map.  When f + I - P_hat is unimodular the
    windows are simply (P_hat, -I, f + I - P_hat); otherwise f is split via
    its Smith form, pairing diagonal entries as diag(a, b) = [[a, 1], [1, 0]]
    + [[0, -1], [-1, b]] (both determinant -1) and splitting the second
    summand through P.  Only the sum-of-three contract is normative; every
    output is checked against it before returning.
    """
    if not f.is_square:
        raise DimensionError("input must be square")
    d = f.rows
    if d < 2 or d % 2:
        raise DimensionError(f"dimension must be even and >= 2, got {d}")
    half = d // 2
    eye = IntMatrix.identity(d)
    p_hat = IntMatrix.block_diag([_P] * half)
    direct = f + eye - p_hat
    if direct.is_unimodular():
        windows = (p_hat, eye.scale(-1), direct)
    else:
        res = snf(f)
        diag = res.diagonal()
        e_blocks = []
        f_blocks = []
        for i in range(half):
            a, b = diag[2 * i], diag[2 * i + 1]
            e_blocks.append(IntMatrix.from_rows([[a, 1], [1, 0]]))
            f_blocks.append(IntMatrix.from_rows([[0, -1], [-1, b]]))
        u_inv, v_inv = res.u_inverse, res.v_inverse
        a_part = u_inv * IntMatrix.block_diag(e_blocks) * v_inv
        b_part = u_inv * IntMatrix.block_diag(f_blocks) * v_inv
        windows = (b_part * p_hat, a_part, b_part * (eye - p_hat))
    tails = (_P, IntMatrix.identity(2).scale(-1), IntMatrix.identity(2) - _P)
    if windows[0] + windows[1] + windows[2] != f:
        raise ValidationError("window sum does not reproduce the input")
    if tails[0] + tails[1] + tails[2] != IntMatrix.zeros(2, 2):
        raise ValidationError("tail patterns do not cancel")
    out = tuple(eventually_uniform(w, t) for w, t in zip(windows, tails))
    return out  # type: ignore[return-value]


def wans_sum_certificate(
    f: IntMatrix, parts: Sequence[EventuallyUniform]
) -> Certificate:
    """Certificate that the three windows add up to f extended by zero."""
    env = {f"sigma{i + 1}": aut for i, aut in enumerate(parts)}
    summands = tuple(map(Named, env))
    return _checked(
        _claim(env, None, f.rows, kind=WINDOW_SUM, target_matrix=f, summand_words=summands)
    )


# -- block-unitriangular factorization -------------------------------------


def factor_block_unitriangular(m: int, z: IntMatrix) -> tuple[Token, Certificate]:
    """Write the block-unitriangular beta (x_i -> x_i + m z_i, y fixed) as a
    product of exactly three conjugates of the standard shear tau^m.

    The conjugators embed the three summands of ``wans_three(z)`` as
    automorphisms acting identically on X and preserving Y; the certificate
    checks the product equals beta on windows 2d and 4d.
    """
    if m < 2:
        raise ValueError(f"shear modulus must be >= 2, got {m}")
    if not z.is_square:
        raise DimensionError("z must be square")
    d = z.rows
    parts = wans_three(z)
    eye = IntMatrix.identity(d)
    zero = IntMatrix.zeros(d, d)
    half = d // 2
    env: dict[str, RepAut] = {
        "tau_m": uniform(_block2(eye, zero, eye.scale(m), eye)),
    }
    tau_m, factors = Named("tau_m"), []
    for i, part in enumerate(parts, start=1):
        name = f"sigma{i}"
        tail = IntMatrix.block_diag([part.block.matrix] * half)
        env[name] = eventually_uniform(
            _block2(eye, zero, zero, window_matrix(part, d)),
            _block2(eye, zero, zero, tail),
        )
        factors.append(Conj(tau_m, Named(name)))
    word = Product(tuple(factors))
    beta = eventually_uniform(_block2(eye, zero, z.scale(m), eye), IntMatrix.identity(2))
    return word, _checked(_claim(env, word, 2 * d, kind=WINDOW_IDENTITY, target_aut=beta))


# -- scalar bookkeeping -----------------------------------------------------


@dataclass(frozen=True)
class ConjugateProduct:
    """Coefficient data of a product of pair shears x -> k_s x + m_s y_s."""

    k: int
    m: int
    coefficients: tuple[int, ...]


def conjugate_product_reduce(pairs: Sequence[tuple[int, int]]) -> ConjugateProduct:
    """Combine shear pairs (k_s, m_s): the product acts by prod(k_s) on x and
    its shear coefficients ((prod_{t>s} k_t) m_s, ..., m_l) have gcd equal to
    gcd(m_1, ..., m_l)."""
    if not pairs:
        raise ValueError("need at least one pair")
    for k_s, m_s in pairs:
        if m_s < 2:
            raise ValueError(f"moduli must be >= 2, got {m_s}")
        if gcd(k_s, m_s) != 1:
            raise ValueError(f"pair ({k_s}, {m_s}) is not coprime")
    ell = len(pairs)
    coeffs = []
    for s in range(ell):
        c = pairs[s][1]
        for t in range(s + 1, ell):
            c *= pairs[t][0]
        coeffs.append(c)
    k = 1
    for k_s, _ in pairs:
        k *= k_s
    m = gcd(*coeffs)
    expected = gcd(*(m_s for _, m_s in pairs))
    if m != expected:
        raise ValidationError(f"coefficient gcd {m} differs from direct gcd {expected}")
    return ConjugateProduct(k, m, tuple(coeffs))


def euler_reduce(k: int, m: int) -> int:
    """Euler phi of m, checked to annihilate k: k^phi(m) = 1 mod m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if gcd(k, m) != 1:
        raise ValueError(f"k = {k} and m = {m} are not coprime")
    ell = euler_phi(m)
    if pow(k, ell, m) != 1 % m:
        raise ValidationError(f"{k}^{ell} is not 1 mod {m}")
    return ell


def bezout_combine(m: int, n1: int, n2: int) -> tuple[Token, Certificate]:
    """Combine tau^(m n1) and tau^(m n2) into tau^m by Bezout exponents."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if n1 < 2 or n2 < 2:
        raise ValueError("coprime pair entries must be >= 2")
    g, a, b = xgcd(n1, n2)
    if g != 1:
        raise ValueError(f"{n1} and {n2} are not coprime")
    word = Product((Power(Named("tau_mn1"), a), Power(Named("tau_mn2"), b)))
    env = {"tau_mn1": tau_power(m * n1), "tau_mn2": tau_power(m * n2)}
    return word, _checked(_claim(env, word, 4, kind=WINDOW_IDENTITY, target_aut=tau_power(m)))


# -- the composite pipeline -------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    name: str
    word: Token
    certificates: tuple[Certificate, ...]
    note: str = ""


@dataclass(frozen=True)
class WitnessChain:
    """Derivation phi -> psi -> (order-n conjugations) -> shear witness.

    ``level`` is the modulus m with Gamma(m) <= nc(phi) established at
    window scale; ``final`` is the last derived element.  Every step's
    certificates, and the links between them and the claim, re-verify from
    the serialized chain alone.
    """

    steps: tuple[ChainStep, ...]
    final: RepAut
    level: int
    scope_note: str


SCOPE_NOTE_CLEAN = (
    "input shear is already clean (k = 1); every step is an exact window identity"
)
SCOPE_NOTE_GENERAL = (
    "final witness is the action-form shear on the tracked pair family; the "
    "pair-interleaving normalization to a fully uniform shear needs conjugators "
    "with nontrivial complement coupling, outside the representable classes"
)


def verify_chain(chain: WitnessChain, walks: Optional[dict] = None) -> VerifyResult:
    """Check every certificate of the chain, each once, and then, once they
    all hold, the links that make them prove the chain's claim
    (``_broken_link``); a broken link adds one report line.  The
    certificates and the links share one set of window walks
    (``verify_certificate``): those of the build when ``km_pipeline`` passes
    them, else walks made here, from the atoms.  So each step reads what the
    earlier steps walked: the conjugation steps read step 1's rows of psi,
    the Bezout step's action claims build w1^a w2^b from the conjugation
    steps' rows (or find the build's rows of it), and the general ``final``
    link compares ``final`` with those rows."""
    ok = True
    lines: list[str] = []
    walks = {} if walks is None else walks
    for step in chain.steps:
        for cert in step.certificates:
            res = verify_certificate(cert, walks)
            ok = ok and res.ok
            lines.extend(f"{step.name}: {line}" for line in res.report)
    broken = _broken_link(chain, walks) if ok else None
    if broken is not None:
        ok = False
        lines.append(f"broken link: {broken}")
    return VerifyResult(ok, tuple(lines))


def _broken_link(chain: WitnessChain, walks: Optional[dict] = None) -> Optional[str]:
    """The first link of a chain with verified certificates that fails, or None.

    The links are those ``_pipeline_clean`` and ``_pipeline_general`` build:
    four steps (reduction, two conjugations, Bezout combination) whose
    certificates share one environment and whose words lie in the normal
    closure of its atom phi; the last step's word is w1^a w2^b over the two
    conjugation steps' words; ``final`` is the last step's target (clean
    scope) or phi1^a phi2^b over the conjugation steps' targets (general
    scope: ``final``'s window is the rows of w1^a w2^b walked in ``walks``,
    which the certificates' check has filled, ``_is_power_product``), each
    target of an identity claim that holds on every window; and ``level`` is
    the modulus of ``final``'s
    shear (clean) or the tracked-pair coefficient of the last step's action
    claims (general).  So ``final`` is an element of nc(phi) that shears by
    ``level``.  Last, the steps carry the pipeline's names, each n read from its word.
    """
    if chain.scope_note not in (SCOPE_NOTE_CLEAN, SCOPE_NOTE_GENERAL):
        return "the scope note names neither pipeline scope"
    if len(chain.steps) != 4:
        return f"the chain has {len(chain.steps)} steps, not the pipeline's 4"
    certs = [cert for step in chain.steps for cert in step.certificates]
    if any(cert.environment != certs[0].environment for cert in certs):
        return "the certificates are not stated over one environment"
    outside = next((s for s in chain.steps if not _in_normal_closure(s.word, "phi")), None)
    if outside is not None:
        return f"the word of {outside.name} is not in the normal closure of phi"
    _, conj1, conj2, last = chain.steps
    factors = last.word.factors if isinstance(last.word, Product) else ()
    exponents = [f.exponent for f in factors if isinstance(f, Power)]
    if len(exponents) != 2 or last.word != Product(
        tuple(map(Power, (conj1.word, conj2.word), exponents))
    ):
        return f"the word of {last.name} is not w1^a w2^b over the conjugation steps' words"
    clean = chain.scope_note == SCOPE_NOTE_CLEAN
    if clean:
        if chain.final != _step_target(last):
            return f"final is not the target of {last.name}"
        shape = shear_shape(chain.final)
        m = None if shape is None else shape[1]
    else:
        phis = _step_target(conj1), _step_target(conj2)
        read = None if None in phis else _word_window(walks, certs[0].environment, last.word)
        if read is None or not _is_power_product(chain.final, *read):
            return "final is not phi1^a phi2^b over the conjugation steps' targets"
        m = _tracked_coefficient(last)
    if m != chain.level:
        return f"level {chain.level} is not the modulus the chain derives ({m})"
    orders = [w.exponent if clean else len(w.factors) for w in (conj1.word, conj2.word)
              if isinstance(w, Power if clean else Product)]
    names = ["euler-gcd-reduction", *(f"order-{n}-shear-conjugation" for n in orders),
             "bezout-combination"]
    if [step.name for step in chain.steps] != names:
        return f"the steps are not named {', '.join(names)}"
    return None


def _step_target(step: ChainStep) -> Optional[RepAut]:
    """The target of the step's identity claim about its own word that holds
    on every window, or None."""
    return next(
        (
            cert.target_aut
            for cert in step.certificates
            if cert.word == step.word and holds_on_every_window(cert)
        ),
        None,
    )


def _in_normal_closure(word: Token, name: str) -> bool:
    """Whether the word lies in the normal closure of the atom ``name`` by
    its form: built from that atom by conjugation (by anything), products,
    powers and inverses."""
    if isinstance(word, Named):
        return word.name == name
    if isinstance(word, (Inverse, Power)):
        return _in_normal_closure(word.inner, name)
    if isinstance(word, Conj):
        return _in_normal_closure(word.g, name)
    return isinstance(word, Product) and all(_in_normal_closure(f, name) for f in word.factors)


def _is_power_product(final: RepAut, atoms: list[RepAut], rows: Pairs) -> bool:
    """Whether final is the word w1^a w2^b whose ``atoms`` and rows on
    their core window H + L ``_word_window`` gives: final must not widen
    (H, L), and its window there must be those rows.  That window stands
    for every window, so final is w1^a w2^b, and the conjugation steps'
    verified identity claims make each w_n phi_n on every window: so final
    is phi1^a phi2^b, and nothing is multiplied or inverted here."""
    split = head_and_period(atoms)
    return head_and_period((final, *atoms)) == split and window_pairs(final, sum(split)) == rows


def _tracked_coefficient(step: ChainStep) -> Optional[int]:
    """c when the step's claims are exactly ``_pair_shear``'s on its word:
    e_x to e_x + c e_p and e_p fixed, for a tracked pair x != p; else None."""
    certs = step.certificates
    if len(certs) != 2 or not all(cert.vector and cert.target_vector for cert in certs):
        return None
    n = certs[0].windows[0]
    x, p = (next((i for i, v in enumerate(cert.vector) if v), n) for cert in certs)
    if x == p or max(x, p) >= n or p >= len(certs[0].target_vector):
        return None
    c = certs[0].target_vector[p]
    return c if _pair_shear(certs[0].environment, step.word, n, x, p, c) == certs else None


def km_pipeline(phi: RepAut, coprime: tuple[int, int] = (2, 3)) -> WitnessChain:
    """Witness chain showing Gamma(m) <= nc(phi) for a shear-shaped phi.

    phi must be a uniform pair automorphism with x -> k x + m u per pair,
    gcd(k, m) = 1 and m >= 2 (``canonical_shear`` builds one).  Raises
    ``ShapeError`` otherwise.  The finished chain is verified once, and a
    failing certificate raises ``ValidationError``.  In the general scope
    (k != 1) the target psi of the reduction step, the targets phi_n of the
    conjugation steps and the chain's ``final`` are the values of the steps'
    own words, ``final`` that of the Bezout step's w1^a w2^b: claimed values
    (``autrep``) walked with no inverse (``_walked``), so ``compose`` and
    ``invert`` refuse them.  The check reuses the build's walks, so the
    identity claims on psi and phi_n, the Bezout step's action claims and
    the ``final`` link read rows the build walked; the order claims and the
    other links are still checked, and a fresh ``infrank verify`` of the
    written chain walks every word again, by the same rules.
    """
    shape = shear_shape(phi)
    if shape is None:
        raise ShapeError("pipeline input must be a uniform pair shear x -> k x + m u")
    k, m = shape
    n1, n2 = coprime
    if n1 < 2 or n2 < 2 or gcd(n1, n2) != 1:
        raise ValueError(f"({n1}, {n2}) is not a coprime pair of numbers >= 2")
    walks: dict = {}
    if phi.block.matrix == IntMatrix.from_rows([[1, m], [0, 1]]):
        chain = _pipeline_clean(phi, m, n1, n2)
    else:
        chain = _pipeline_general(phi, k, m, n1, n2, walks)
    _require(verify_chain(chain, walks))
    return chain


def _pipeline_clean(phi: RepAut, m: int, n1: int, n2: int) -> WitnessChain:
    env, word_phi = {"phi": phi}, Named("phi")
    reduce_data = conjugate_product_reduce([(1, m)])
    cert1 = _claim(env, word_phi, 2, kind=ACTION_ON_VECTOR, vector=(0, 1), target_vector=(m, 1))
    steps = [
        ChainStep(
            "euler-gcd-reduction",
            word_phi,
            (cert1,),
            note=f"k = 1: single factor, coefficients {list(reduce_data.coefficients)}",
        )
    ]
    for n in (n1, n2):
        word_n = Power(word_phi, n)
        cert_n = _claim(env, word_n, 4, kind=WINDOW_IDENTITY, target_aut=tau_power(m * n))
        steps.append(
            ChainStep(
                f"order-{n}-shear-conjugation",
                word_n,
                (cert_n,),
                note="degenerate: the shear is clean, so powering needs no conjugation",
            )
        )
    _, a, b = xgcd(n1, n2)
    word3 = Product((Power(Power(word_phi, n1), a), Power(Power(word_phi, n2), b)))
    cert3 = _claim(env, word3, 4, kind=WINDOW_IDENTITY, target_aut=tau_power(m))
    steps.append(
        ChainStep(
            "bezout-combination",
            word3,
            (cert3,),
            note=f"{a}*{n1} + {b}*{n2} = 1",
        )
    )
    return WitnessChain(tuple(steps), tau_power(m), m, SCOPE_NOTE_CLEAN)


def _perm_swap(size: int, i: int, j: int) -> IntMatrix:
    """Swaps coordinates i and j; keeps an equal twin as its inverse, not itself."""
    rows = [[1 if a == b else 0 for b in range(size)] for a in range(size)]
    rows[i][i] = rows[j][j] = 0
    rows[i][j] = rows[j][i] = 1
    swap = IntMatrix.from_rows(rows)
    accept_inverse(swap, IntMatrix.from_rows(rows))
    return swap


def _unit(size: int, i: int) -> list[int]:
    v = [0] * size
    v[i] = 1
    return v


def _pipeline_general(phi: RepAut, k: int, m: int, n1: int, n2: int, walks: dict) -> WitnessChain:
    ell = euler_reduce(k, m)
    s_chunk = 2 * (ell + 1)
    # the tracked pair: the x-slots of the first two chunks
    x0, p = 1, s_chunk + 1

    # step 1: conjugates h_s phi h_s^-1 redirect the shear of pair 0 onto the
    # partner slots of pairs 1..ell; their product has x-scalar k^ell = 1 + q m
    hs = {f"h{s}": uniform(_perm_swap(s_chunk, 0, 2 * s)) for s in range(ell, 0, -1)}
    env: dict[str, RepAut] = {"phi": phi, **hs}
    word_phi = Named("phi")
    factors = [Conj(word_phi, Named(name)) for name in hs]
    word_psi: Token = Product(tuple(factors)) if len(factors) != 1 else factors[0]
    psi = _walked(env, word_psi, walks)
    assert psi.window_size == 0

    x_col = psi.block.matrix.col(x0)
    k_ell = k**ell
    if x_col[x0] != k_ell or any(c % m for i, c in enumerate(x_col) if i != x0):
        raise ValidationError("conjugate product lost the expected x-action")
    z_vec = [c // m for c in x_col]
    z_vec[x0] = (k_ell - 1) // m
    # [e_x0 | z] is unimodular exactly when gcd(z_i : i != x0) = 1, as its
    # 2 x 2 minors are those z_i, up to sign, and zeros
    if gcd(*(z for i, z in enumerate(z_vec) if i != x0)) != 1:
        raise ValidationError("tracked pair {x, z} is not unimodular")
    reduce_data = conjugate_product_reduce([(k, m)] * ell)
    e_x0 = tuple(_unit(s_chunk, x0))
    cert1a = _claim(env, word_psi, s_chunk, kind=WINDOW_IDENTITY, target_aut=psi)
    cert1b = _claim(env, word_psi, s_chunk, kind=ACTION_ON_VECTOR, vector=e_x0, target_vector=x_col)
    steps = [
        ChainStep(
            "euler-gcd-reduction",
            word_psi,
            (cert1a, cert1b),
            note=(
                f"ell = {ell}, x-scalar k^ell = {k_ell}, shear coefficients "
                f"{list(reduce_data.coefficients)} with gcd {reduce_data.m}"
            ),
        )
    ]

    # steps 2: for each n, an order-n lambda built from two embedded copies of
    # the order-n shear steers phi_n = (lambda psi)^n into x0 -> x0 + m n p, p
    # fixed; as lambda^n = 1, phi_n is the step's word
    for n in (n1, n2):
        s2 = 2 * n * s_chunk
        za = z_vec + [0] * (s2 - s_chunk)
        zp = [0] * s_chunk + z_vec + [0] * (s2 - 2 * s_chunk)
        triple = order_n_shear(n, m)
        r = triple.gamma.rows
        pool = iter(range(2 * s_chunk, s2))
        cols: list[list[int]] = []
        for base, z_base, steer in (
            (x0, za, [e_p - z for e_p, z in zip(_unit(s2, p), za)]),
            (p, zp, [-z for z in zp]),
        ):
            first = [m * z for z in z_base]
            first[base] += 1
            cols.append(first)
            if n == 2:
                cols.append(list(steer))
                continue
            anchor = next(pool)
            for j in range(2, r + 1):  # images of e_2 .. e_r, 1-based
                if j == triple.n:
                    cols.append([_unit(s2, anchor)[i] + steer[i] for i in range(s2)])
                elif j == triple.n + 1:
                    cols.append(_unit(s2, anchor))
                else:
                    cols.append(_unit(s2, next(pool)))
        g_mat = complete_to_basis(IntMatrix.from_rows(list(zip(*cols))))
        core = IntMatrix.block_diag([triple.gamma, triple.gamma, IntMatrix.identity(s2 - 2 * r)])
        lam = g_mat * core * g_mat.inverse()
        # lam^-1 = lam^(n-1), as gamma has order n; else uniform inverts lam
        accept_inverse(lam, lam.power(n - 1))
        env[f"lam{n}"] = uniform(lam)
        word_lam = Named(f"lam{n}")
        word_n = Product(tuple(Conj(word_psi, Power(word_lam, j)) for j in range(1, n + 1)))
        phi_n = _walked(env, word_n, walks)
        cert2a = Certificate(kind=ORDER, windows=(s2,), environment=env, word=word_lam, order=n)
        cert2b = _claim(env, word_n, s2, kind=WINDOW_IDENTITY, target_aut=phi_n)
        steps.append(
            ChainStep(
                f"order-{n}-shear-conjugation",
                word_n,
                (cert2a, cert2b, *_pair_shear(env, word_n, s2, x0, p, m * n)),
                note=f"tracked pair: coordinates {x0} and {p}; blocks of size {s2}",
            )
        )

    # step 3: Bezout combination of the two tracked shears; final is its word
    # walked, which reads w_n^-1 for a negative exponent on w_n's core window
    _, a, b = xgcd(n1, n2)
    word3 = Product((Power(steps[1].word, a), Power(steps[2].word, b)))
    steps.append(
        ChainStep(
            "bezout-combination",
            word3,
            _pair_shear(env, word3, 2 * n1 * n2 * s_chunk, x0, p, m),
            note=f"{a}*{n1} + {b}*{n2} = 1; shear by m = {m} on the tracked pair",
        )
    )
    return WitnessChain(tuple(steps), _walked(env, word3, walks), m, SCOPE_NOTE_GENERAL)


def _walked(env: Mapping[str, RepAut], word: Token, walks: dict) -> RepAut:
    """The claimed value (``autrep``) of word over env: its rows on its
    atoms' core window H + L (``_word_window``), read back by
    ``autrep.from_window``.  No inverse window is made; the chain's links
    check the value, and the rows stay in ``walks``."""
    atoms, rows = _word_window(walks, env, word)
    return from_window(rows, head_and_period(atoms))


def _word_window(walks: Optional[dict], env: Mapping[str, RepAut], word: Token) -> Optional[tuple]:
    """The atoms word names over env (``words.named_atoms``) and word's rows
    on their ``head_and_period`` window H + L, walked in ``walks``
    (``words._walk``), so that the build and the check find the value of a
    word by one rule; None when env lacks a name or the atoms have no
    (H, L)."""
    atoms = named_atoms(env, word)
    split = None if atoms is None else head_and_period(atoms)
    return None if split is None else (atoms, _walk(walks, env, sum(split)).walk(word))
