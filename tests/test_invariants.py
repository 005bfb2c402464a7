"""The invariants the library rests on, one test per ``selftest`` check and
seed.  A check that raises fails here with its traceback, where ``infrank
selftest`` only prints FAIL."""

import random

import pytest

from infrank.selftest import CHECKS


@pytest.mark.parametrize("seed", range(21))
@pytest.mark.parametrize("check", CHECKS, ids=[name for name, _, _ in CHECKS])
def test_invariant_holds(check, seed):
    _, statement, fn = check
    assert fn(random.Random(seed)), statement
