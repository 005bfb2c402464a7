"""Finite combinatorial skeleton of the maximal-subgroup landscape.

Infinite prime-set data is only ever handled through descriptors whose
membership queries are decidable, so centered-family checks and the
countable-cofinality counterexample reduce to finite computations.  No
choice-dependent object (ultrafilter and the like) is ever constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .autrep import GradedBlock, RepAut, graded
from .classify import FinitePrimes, PrimeSetDescriptor, UnionWithPrefix, lambda_member
from .numth import is_prime, primes_after


def omega_member(aut: RepAut, primes: Sequence[int]) -> bool:
    """Membership in Omega_P = the intersection of Lambda(p) over p in P."""
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return all(lambda_member(aut, p) for p in primes)


@dataclass(frozen=True)
class CenteredFamilyReport:
    """Outcome of checking all small subfamilies for common primes.

    On success ``witnesses`` records one shared prime per checked
    subfamily; on failure ``empty_subfamily`` holds the indices of a
    subfamily with empty intersection.
    """

    verdict: bool
    checked_size: int
    witnesses: tuple[tuple[tuple[int, ...], int], ...] = ()
    empty_subfamily: Optional[tuple[int, ...]] = None


def _common_prime(descriptors: Sequence[PrimeSetDescriptor]) -> Optional[int]:
    """The smallest prime in the intersection, or None if it is empty.

    Finite members are checked element by element.  A family of purely
    cofinite members always intersects, since the union of their
    exclusions is finite, so the walk up through the primes ends.
    """
    finite_sets = [d.primes for d in descriptors if isinstance(d, FinitePrimes)]
    if finite_sets:
        candidates = sorted(set.intersection(*map(set, finite_sets)))
        for p in candidates:
            if all(d.contains(p) for d in descriptors):
                return p
        return None
    for d in descriptors:
        if not isinstance(d, UnionWithPrefix):
            raise TypeError(f"unknown descriptor {d!r}")
    return next(p for p in primes_after(1) if all(d.contains(p) for d in descriptors))


def centered_check(
    descriptors: Sequence[PrimeSetDescriptor], subfamily_size: int
) -> CenteredFamilyReport:
    """Check every subfamily of size <= subfamily_size for a common prime."""
    if subfamily_size < 1:
        raise ValueError("subfamily size must be at least 1")
    if subfamily_size > len(descriptors):
        raise ValueError("subfamily size exceeds the family")
    witnesses = []
    for size in range(1, subfamily_size + 1):
        for idx in combinations(range(len(descriptors)), size):
            p = _common_prime([descriptors[i] for i in idx])
            if p is None:
                return CenteredFamilyReport(False, subfamily_size, empty_subfamily=idx)
            witnesses.append((idx, p))
    return CenteredFamilyReport(True, subfamily_size, witnesses=tuple(witnesses))


def graded_construct(prefix_primes: Sequence[int], excluded: Sequence[int]) -> GradedBlock:
    """A graded automorphism whose prime set is the given finite primes
    joined with all primes outside the exclusion set.

    It is never an almost-radiation, and it lies in Lambda of every
    cumulative multiplier product.
    """
    pre = tuple(prefix_primes)
    exc = frozenset(excluded)
    for p in pre:
        if not is_prime(p):
            raise ValueError(f"prefix entry {p} is not prime")
    if len(set(pre)) != len(pre):
        raise ValueError("prefix primes must be pairwise distinct")
    if set(pre) & exc:
        raise ValueError(f"prefix and exclusion set overlap on {sorted(set(pre) & exc)}")
    return graded(pre, exc)


@dataclass(frozen=True)
class CounterexampleReport:
    """Finite evidence behind the countable-cofinality failure of the ladder.

    Each phi_p avoids level p but sits in Lambda(2) and in Lambda(q); if a
    standard shear of modulus 2 were in the normal closure of finitely many
    of them, the whole congruence subgroup of level 2 would land inside
    Lambda(q), which the shear of modulus 2 itself already refutes.
    """

    primes: tuple[int, ...]
    probe: int
    memberships: tuple[tuple[int, bool, bool], ...]
    all_verified: bool


def counterexample_demo(primes: Sequence[int], probe: int) -> CounterexampleReport:
    ps = tuple(primes)
    if not ps:
        raise ValueError("need at least one prime")
    for p in ps:
        if not is_prime(p) or p == 2:
            raise ValueError(f"{p} must be an odd prime")
    if not is_prime(probe):
        raise ValueError(f"probe {probe} is not prime")
    if probe <= max(ps):
        raise ValueError(f"probe {probe} must exceed all of {sorted(ps)}")
    rows = []
    for p in ps:
        aut = graded_construct((), (p,))
        rows.append((p, lambda_member(aut, 2), lambda_member(aut, probe)))
    ok = all(in2 and inq for _, in2, inq in rows)
    return CounterexampleReport(ps, probe, tuple(rows), ok)
