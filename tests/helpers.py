"""Helpers the test modules share: random and drawn matrices, automorphisms
and words, a product counter, a lift counter, the CLI runners and the
criterion-5 corpus."""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import infrank
from infrank import intmat
from infrank.autrep import eventually_uniform, finitary, graded, uniform
from infrank.classify import scalar_defect
from infrank.cli import main
from infrank.intmat import IntMatrix, row_pairs
from infrank.serialize import format_matrix_text
from infrank.witness import shear_shape, tau_power
from infrank.words import Conj, Inverse, Named, Power, Product

# -- matrices -----------------------------------------------------------------


def random_matrix(rng, rows, cols, bound=20):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng, n, steps=8):
    m = IntMatrix.identity(n)
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = rng.randint(-3, 3)
        m = m * IntMatrix.from_rows(e)
    return m


def assert_passes_validation(r: IntMatrix) -> None:
    """r, built without the entry check, passes it and compares equal."""
    assert IntMatrix(r.data) == r
    assert all(type(x) is int for x in r.entries())


class ProductCounter:
    """Counts matrix products, the calls of ``intmat.pairs_product`` that
    ``IntMatrix.__mul__``, ``power`` and the word walk make, and keeps the
    largest dimension formed.  The one acceptance rule of an inverse,
    ``A * B == I`` (``intmat.accept_inverse``), is part of an inverse, not a
    product, and is not counted."""

    def __init__(self, monkeypatch):
        self.count = 0
        self.largest = 0
        orig = intmat.pairs_product
        check = intmat.accept_inverse.__code__

        def counting(a, b):
            if sys._getframe(1).f_code is not check:
                self.count += 1
                self.largest = max(self.largest, len(a), len(b))
            return orig(a, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("infrank") and getattr(module, "pairs_product", None) is orig:
                monkeypatch.setattr(module, "pairs_product", counting)


class ModCounter:
    """Records the k and the dimension of every 2-adic lift, the calls of
    ``intmat._inverse_mod_2k``."""

    def __init__(self, monkeypatch):
        self.ks, self.dims = [], []
        orig = intmat._inverse_mod_2k

        def counting(a, k):
            self.ks.append(k)
            self.dims.append(len(a))
            return orig(a, k)

        monkeypatch.setattr(intmat, "_inverse_mod_2k", counting)


@st.composite
def kernel_rows(draw, rows, cols):
    """rows x cols entries of one drawn kind: sparse (one entry in ten
    nonzero), dense, +-1-heavy, or half of them 400-bit."""
    kind = draw(st.sampled_from(["sparse", "dense", "unit", "400-bit"]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if kind == "sparse":
            return rng.choice([1, -1, 7, -(2**70)]) if rng.random() < 0.1 else 0
        if kind == "dense":
            return rng.choice([1, -1]) * rng.randint(1, 50)
        if kind == "unit":
            return rng.choice([1, -1, 1, -1, 0, 2])
        return rng.choice([0, rng.randint(-(2**400), 2**400)])

    return [tuple(entry() for _ in range(cols)) for _ in range(rows)]


def matrix_text(m: IntMatrix) -> str:
    """``format_matrix_text`` of a dense matrix, through its row pairs."""
    return format_matrix_text(row_pairs(m.data), m.cols)


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations, with one optional sign flip."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]
    index = st.integers(0, max(n - 1, 0))
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=6)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


# -- automorphisms and words ----------------------------------------------------


@st.composite
def finitary_or_uniform(draw, max_dim=3):
    if draw(st.booleans()):
        size = draw(st.integers(1, max_dim))
        support = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
        return finitary(support, draw(unimodular(size)))
    d = draw(st.integers(1, max_dim))
    return eventually_uniform(draw(unimodular(d * draw(st.integers(0, 2)))), draw(unimodular(d)))


@st.composite
def one_atom_per_class(draw):
    """A finitary atom below coordinate 8, an eventually uniform atom with a
    head of up to 6 and blocks of 1-3, and a graded shear: windows 12 and 24
    are aligned for all three."""
    size = draw(st.integers(1, 3))
    support = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
    d = draw(st.integers(1, 3))
    return {
        "f": finitary(support, draw(unimodular(size))),
        "u": eventually_uniform(draw(unimodular(d * draw(st.integers(0, 2)))), draw(unimodular(d))),
        "g": graded(
            draw(st.lists(st.integers(2, 9), max_size=2)),
            draw(st.sets(st.sampled_from([2, 3, 5]))),
            draw(st.booleans()),
        ),
    }


# |e| > 12 passes the push/dense crossover on window 12
EXPONENTS = st.sampled_from([-14, -3, -2, -1, 0, 1, 2, 3, 13])


@st.composite
def words(draw, depth=3, names=("f", "u", "g"), exponents=EXPONENTS):
    """Words over the atoms ``names`` nesting up to ``depth`` tokens deep."""
    kind = draw(st.integers(0, 5)) if depth else 0
    if kind < 2:
        return Named(draw(st.sampled_from(names)))
    inner = words(depth - 1, names, exponents)
    if kind == 2:
        return Inverse(draw(inner))
    if kind == 3:
        return Power(draw(inner), draw(exponents))
    if kind == 4:
        return Conj(draw(inner), draw(inner))
    return Product(tuple(draw(st.lists(inner, max_size=3))))


def build_corpus(rng: random.Random):
    """500 seeded representations across the three classes.

    Random blocks keep their scalar defect within the sampled level range
    (<= 60) and leave shear-shaped blocks to the explicit anchors, whose
    Euler exponents keep the ladder's witness chains small.
    """
    corpus = []
    # explicit anchors, including every shear shape the ladder criterion uses
    corpus += [tau_power(m) for m in (1, 2, 3, 4, 6)]
    corpus += [uniform(IntMatrix.from_rows([[9, 4], [2, 1]]))]  # twisted, defect 2
    corpus += [finitary((0,), IntMatrix.from_rows([[-1]])), finitary((), IntMatrix.from_rows([]))]
    corpus += [uniform(IntMatrix.identity(2).scale(-1))]
    corpus += [graded((2, 3), ()), graded((), (7,)), graded((5,), (2,), negated=True)]

    def usable(b):
        if not (0 < scalar_defect(b) <= 60 or scalar_defect(b) == 0):
            return False
        return shear_shape(uniform(b)) is None

    while len(corpus) < 200:
        b = random_unimodular(rng, rng.randint(1, 4))
        if usable(b):
            corpus.append(uniform(b))
    while len(corpus) < 280:
        d = rng.randint(1, 3)
        b = random_unimodular(rng, d)
        if not usable(b):
            continue
        n0 = d * rng.randint(1, 2)
        aut = eventually_uniform(random_unimodular(rng, n0), b)
        if shear_shape(aut) is None:
            corpus.append(aut)
    while len(corpus) < 380:
        support = tuple(sorted(rng.sample(range(10), rng.randint(1, 3))))
        corpus.append(finitary(support, random_unimodular(rng, len(support))))
    while len(corpus) < 500:
        prefix = tuple(rng.choice([2, 3, 5, 7]) for _ in range(rng.randint(0, 3)))
        excluded = tuple(rng.sample([11, 13], rng.randint(0, 2)))
        corpus.append(graded(prefix or (rng.choice([2, 3]),), excluded, rng.random() < 0.3))
    return corpus


# -- the command line -------------------------------------------------------------


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(args, timeout):
    """``python *args`` in a child process that imports this infrank, killed
    after ``timeout`` seconds."""
    src = str(Path(infrank.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
