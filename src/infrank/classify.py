"""Decision procedures for congruence level, scalar-mod-m membership, and
the normal-generator dichotomy.

Terminology: Gamma(m) is the principal congruence subgroup (automorphisms
congruent to the identity mod m), Lambda(m) the automorphisms acting as an
integer scalar mod m on a large direct summand, and an almost-radiation
acts as +-identity on a large summand.  For the representations of
:mod:`infrank.autrep` all of these are decidable:

* a finitary automorphism is the identity on a large summand, so it lies
  in Lambda(m) for every m: its level set is the divisors of 0;
* an eventually-uniform automorphism lies in Lambda(m) exactly when its
  repeating block is scalar mod m, so its level set is the divisors of the
  block's scalar defect (the finite window sits inside the complement of a
  large summand and never matters);
* a graded automorphism lies in Lambda(m) exactly when m divides one of
  its cumulative multiplier products, since all later pairs shear by
  multiples of that product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, Optional, Sequence

from . import witness as _witness
from .autrep import EventuallyUniform, Finitary, GradedBlock, RepAut, uniform
from .errors import DimensionError
from .intmat import IntMatrix, is_unimodular_set
from .numth import factorize, is_prime


# -- level descriptors ----------------------------------------------------


@dataclass(frozen=True)
class DivisorsOf:
    """Member of Lambda(m) exactly for the divisors m >= 2 of g: every level
    when g == 0, none when g == 1 (the normal-generator case)."""

    g: int


@dataclass(frozen=True)
class RuleBased:
    """Graded level set: m is a level iff m divides some cumulative product
    of the unsigned ``block``'s multipliers."""

    block: GradedBlock

    def exponent_cap(self) -> Callable[[int], int]:
        """p -> the largest e with p^e a level: p's exponent in the prefix,
        plus one when the tail walks p."""
        exps, skip = self.block.prefix_exponents(), self.block.tail_skip()
        return lambda p: exps.get(p, 0) + (p not in skip)

    def member(self, m: int) -> bool:
        if m < 2:
            raise ValueError("level queries need m >= 2")
        cap = self.exponent_cap()
        return all(e <= cap(p) for p, e in factorize(m).items())


LambdaLevels = DivisorsOf | RuleBased


@dataclass(frozen=True)
class FinitePrimes:
    primes: frozenset[int]

    def contains(self, p: int) -> bool:
        return p in self.primes


@dataclass(frozen=True)
class UnionWithPrefix:
    """A finite prime set joined with the complement of a finite set; every
    prime when both are empty."""

    finite: frozenset[int]
    excluded: frozenset[int]

    def contains(self, p: int) -> bool:
        return is_prime(p) and (p in self.finite or p not in self.excluded)


PrimeSetDescriptor = FinitePrimes | UnionWithPrefix


# -- core measurements ----------------------------------------------------


def congruence_gcd(aut: RepAut) -> int:
    """gcd c of all entries of (aut - id); membership in Gamma(m) is m | c.

    c == 0 encodes the identity, which lies in Gamma(m) for every m.
    """
    if isinstance(aut, Finitary):
        k = len(aut.support)
        return gcd(*(aut.matrix - IntMatrix.identity(k)).entries())
    if isinstance(aut, EventuallyUniform):
        n0 = aut.window_size
        return gcd(
            *(aut.window - IntMatrix.identity(n0)).entries(),
            *(aut.block.matrix - IntMatrix.identity(aut.d)).entries(),
        )
    # graded: increments are c_0, c_1, ...; c_0 divides every later one
    return abs(aut.increment(0))


def scalar_defect(b: IntMatrix) -> int:
    """Largest modulus mod which b is scalar.

    g = gcd of every off-diagonal entry and every difference of diagonal
    entries; for m >= 2 there is a k with b == k*I mod m iff m | g, and
    g == 0 means b is already scalar (so +-I when b is unimodular).
    """
    if not b.is_square:
        raise DimensionError("scalar defect needs a square matrix")
    n = b.rows
    g = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                g = gcd(g, b.data[i][j])
        g = gcd(g, b.data[i][i] - b.data[0][0])
    return g


def lambda_levels(aut: RepAut) -> LambdaLevels:
    if isinstance(aut, Finitary):
        return DivisorsOf(0)
    if isinstance(aut, EventuallyUniform):
        return DivisorsOf(scalar_defect(aut.block.matrix))
    return RuleBased(GradedBlock(aut.prefix, aut.excluded, False, aut._table))


def lambda_member(aut: RepAut, m: int) -> bool:
    """Is aut in Lambda(m)?  m = 1 is everything, m = 0 the almost-radiations.

    Raises ``ValueError`` for m < 0, whatever the class of ``aut``.
    """
    if m < 0:
        raise ValueError(f"level queries need m >= 0, got {m}")
    if m == 1:
        return True
    if m == 0:
        return is_almost_radiation(aut)
    levels = lambda_levels(aut)
    if isinstance(levels, DivisorsOf):
        return levels.g % m == 0
    return levels.member(m)


def is_almost_radiation(aut: RepAut) -> bool:
    """A unimodular block that is scalar mod every m is +-I: the level set
    is the divisors of 0."""
    levels = lambda_levels(aut)
    return isinstance(levels, DivisorsOf) and levels.g == 0


def nu_set(aut: RepAut) -> PrimeSetDescriptor:
    """The set of primes p with aut in Lambda(p)."""
    levels = lambda_levels(aut)
    if isinstance(levels, RuleBased):
        return UnionWithPrefix(frozenset(levels.block.prefix_exponents()), levels.block.excluded)
    if levels.g == 0:
        return UnionWithPrefix(frozenset(), frozenset())
    return FinitePrimes(frozenset(factorize(levels.g)))


# -- normal generation ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorEvidence:
    """What backs a normal-generator verdict.

    kind = pair-witness     : columns (w, Bw) span a rank-2 summand moved off
                              itself, found by bounded search;
    kind = dichotomy-only   : verdict true but the bounded search found no
                              small witness;
    kind = lambda-level     : verdict false because of membership at the
                              recorded level;
    kind = almost-radiation : verdict false because aut is an almost-radiation.
    """

    kind: str
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    level: Optional[int] = None


_SEARCH_BOX = range(-3, 4)


def _pair_witness(aut: EventuallyUniform) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search one block, and two adjacent ones when d == 2, for w with {w, Bw} unimodular."""
    b = aut.block.matrix
    d = aut.d
    candidates = [IntMatrix.block_diag([b])]
    if d == 2:
        candidates.append(IntMatrix.block_diag([b, b]))
    for mat in candidates:
        dim = mat.rows
        for coeffs in itertools.product(_SEARCH_BOX, repeat=dim):
            if not any(coeffs):
                continue
            image = mat.apply(coeffs)
            cols = IntMatrix.from_rows([[coeffs[i], image[i]] for i in range(dim)])
            if is_unimodular_set(cols):
                return tuple(coeffs), image
    return None


def is_normal_generator(aut: RepAut) -> tuple[bool, GeneratorEvidence]:
    """Dichotomy: aut normally generates the whole group iff no level m >= 2
    admits it and it is not an almost-radiation."""
    levels = lambda_levels(aut)
    if isinstance(levels, RuleBased):
        return False, GeneratorEvidence("lambda-level", level=levels.block.multiplier(0))
    if levels.g == 0:
        return False, GeneratorEvidence("almost-radiation")
    if levels.g == 1:
        w = _pair_witness(aut)  # eventually uniform, d >= 2 (a 1 x 1 block is +-1)
        if w is not None:
            return True, GeneratorEvidence("pair-witness", witness=w)
        return True, GeneratorEvidence("dichotomy-only")
    return False, GeneratorEvidence("lambda-level", level=min(factorize(levels.g)))


def common_lambda_level(auts: Sequence[RepAut]) -> Optional[int]:
    """Largest m >= 2 admitting every input, if one exists; 0 when every
    level admits every input.

    The g of the finite level sets combine through gcd, 0 (every level)
    being its identity.  When every constraint is rule-based the level sets
    are unbounded, so the search is cut off at a documented bound: the
    product of all finite multipliers in the rules times the largest prime
    named in their data (at least 2).  Within that bound the answer is exact.
    """
    if not auts:
        raise ValueError("need at least one automorphism")
    levels = [lambda_levels(a) for a in auts]
    g = gcd(*(lv.g for lv in levels if isinstance(lv, DivisorsOf)))
    rules = [lv for lv in levels if isinstance(lv, RuleBased)]
    if g == 1:
        return None
    if not rules:
        return g
    if g:
        # levels are closed under divisors prime by prime, so the largest
        # common one divides g with each exponent capped by every rule
        caps = [r.exponent_cap() for r in rules]
        m = prod(p ** min(e, *(cap(p) for cap in caps)) for p, e in factorize(g).items())
        return m if m > 1 else None
    bound = prod(m for r in rules for m in r.block.prefix)
    largest = max([2, *(p for r in rules for p in r.block.tail_skip())])
    bound = max(bound, 2) * largest
    for m in range(bound, 1, -1):
        if all(r.member(m) for r in rules):
            return m
    return None


# -- ladder report ---------------------------------------------------------


LOWER_BOUND_NOT_CONSTRUCTED = (
    "lower bound guaranteed by the one-generator ladder theorem; "
    "witness chain not constructed for this block shape"
)

NO_MAXIMAL_LEVEL = "no maximal level; ladder rung undefined"


@dataclass(frozen=True)
class LadderReport:
    """Where an automorphism sits in the sandwich Gamma(m) <= nc <= Lambda(m).

    kind = generator        : rung 1, the normal closure is everything;
    kind = almost-radiation : rung 0;
    kind = rung             : rung m = the maximal level, with a constructive
                              witness chain of level m when the automorphism
                              or a conjugate has shear shape of modulus m
                              (``_shear_of_modulus``);
    kind = no-maximal-level : graded level sets are unbounded, so no rung.
    """

    kind: str
    rung: Optional[int] = None
    scalar: Optional[int] = None
    chain: Optional["_witness.WitnessChain"] = None
    note: Optional[str] = None


def ladder_report(aut: RepAut) -> LadderReport:
    """The rung is the g of the level set; the pair-witness search of
    ``is_normal_generator`` gathers evidence only and never runs here."""
    levels = lambda_levels(aut)
    if isinstance(levels, RuleBased):
        return LadderReport("no-maximal-level", note=NO_MAXIMAL_LEVEL)
    g = levels.g
    if g == 1:
        return LadderReport("generator", rung=1)
    if g == 0:
        return LadderReport("almost-radiation", rung=0)
    scalar = aut.block.matrix.data[0][0] % g  # the block is scalar mod g
    phi = _shear_of_modulus(aut, g, scalar)
    if phi is not None:
        return LadderReport("rung", rung=g, scalar=scalar, chain=_witness.km_pipeline(phi))
    return LadderReport("rung", rung=g, scalar=scalar, note=LOWER_BOUND_NOT_CONSTRUCTED)


def _shear_of_modulus(aut: EventuallyUniform, g: int, lam: int) -> Optional[EventuallyUniform]:
    """A shear-shaped automorphism with x column (g, k) and aut's normal
    closure, or None; ``km_pipeline``'s chain for it has level g, the rung.

    That is aut itself when its x column is (g, k).  Another shear-shaped aut
    has block B = lam I + g C; for the first small v with det(v, C v) = +-1,
    the basis (C v, v) conjugates aut to one mapping v to g C v + lam v, of x
    column (g, lam).  A conjugate has the same normal closure, so its chain
    witnesses Gamma(g) <= nc(aut).
    """
    shape = _witness.shear_shape(aut)
    if shape is None or shape[1] == g:
        return None if shape is None else aut
    b = aut.block.matrix
    c = [[(x - lam * (i == j)) // g for j, x in enumerate(row)] for i, row in enumerate(b.data)]
    small = itertools.product(range(-4, 5), repeat=2)  # candidates v, the smallest first
    for a, d in sorted(small, key=lambda v: max(map(abs, v))):
        cv = (c[0][0] * a + c[0][1] * d, c[1][0] * a + c[1][1] * d)
        if abs(a * cv[1] - d * cv[0]) == 1:
            p = IntMatrix.from_rows([[cv[0], a], [cv[1], d]])
            return uniform(p.inverse() * b * p)
    return None


def classification_summary(aut: RepAut) -> dict:
    """One-stop structured report used by the CLI."""
    generator, evidence = is_normal_generator(aut)
    report = ladder_report(aut)
    return {
        "congruence_gcd": congruence_gcd(aut),
        "lambda_levels": lambda_levels(aut),
        "nu_set": nu_set(aut),
        "almost_radiation": is_almost_radiation(aut),
        "normal_generator": generator,
        "generator_evidence": evidence,
        "ladder": report,
    }
