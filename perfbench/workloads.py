"""The four workloads: inputs made from a seed, the operations of one round,
and the independent checks of each operation's output.

Each workload object is built during set-up (building it generates and
writes the input documents) and exposes:

* ``ops``: the operations of one round, run in order by one client;
* ``check(op, out)``: raises ``CheckFailed`` when the output is wrong;
* ``digest(out)``: a value equal for equal outputs, so later rounds can be
  compared with the first one;
* ``mutations(first_round)``: deliberately wrong outputs that ``check``
  must reject;
* ``artifact_bytes``: bytes of the documents one round writes (pipeline)
  or reads (the other workloads).

Operations call the program through module attributes (``cli.main``,
``serialize.parse_aut``, ...), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from math import gcd
from pathlib import Path
from typing import Any, Callable

import infrank.autrep as autrep
import infrank.classify as classify
import infrank.cli as cli
import infrank.intmat as intmat
import infrank.numth as numth
import infrank.serialize as serialize
import infrank.witness as witness
import infrank.words as words

import oracle
from oracle import CheckFailed, expect

MODULES = {
    "intmat": intmat,
    "autrep": autrep,
    "numth": numth,
    "words": words,
    "witness": witness,
    "classify": classify,
    "serialize": serialize,
    "cli": cli,
}


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    spec: Any = None  # what the check needs to know about the input


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    written: str | None = None  # the document the command wrote, if any


def run_cli(argv: list[str], out_file: Path | None = None) -> CliResult:
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = cli.main(argv)
    written = out_file.read_text() if out_file is not None else None
    return CliResult(code, so.getvalue(), se.getvalue(), written)


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _canonical(obj: Any) -> str:
    """The program's canonical JSON layout, for documents edited here."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _matrix_text(rows: list[list[int]]) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def random_unimodular(rng: random.Random, n: int, steps: int = 8) -> list[list[int]]:
    """Product of elementary column operations, as in the acceptance tests."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for row in m:
            row[j] += c * row[i]
    return m


def _last_line(text: str) -> str:
    lines = text.rstrip("\n").splitlines()
    return lines[-1] if lines else ""


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    ops: list[Op]
    doc_bytes = 0  # bytes of the input documents, written during set-up

    def digest(self, out: Any) -> str:
        return _sha(out)

    def artifact_bytes(self, first: list) -> int:
        return self.doc_bytes


# -- pipeline -------------------------------------------------------------------

# (k, m) of one round, all with coprime pair (2, 3).  The seed picks the
# sign of each k: (k, m) and (-k, m) give blocks with the same entry sizes
# and cost the same, so the seed changes the inputs without moving the
# medians.  Five shears have phi(m) = 2 (windows up to 144, about 3 s each)
# so the median is one of them; (2, 5) has phi(m) = 4 (windows up to 240,
# about 11 s).  Clean shears (k = 1, about 1 ms each) are left out, as they
# would make the median bimodal.
PIPELINE_SHEARS = ((3, 4), (5, 6), (5, 4), (7, 6), (7, 4), (2, 5))
COPRIME = (2, 3)


class Pipeline(Workload):
    name = "pipeline"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.ops = []
        n1, n2 = COPRIME
        for i, (k, m) in enumerate(PIPELINE_SHEARS):
            k = rng.choice((k, -k))
            out = workdir / f"pipeline-{i}.cert"
            argv = ["pipeline", "--k", str(k), "--m", str(m), "--coprime", f"{n1},{n2}",
                    "--out", str(out)]
            self.ops.append(Op(f"pipeline k={k} m={m} coprime={n1},{n2}",
                               partial(run_cli, argv, out), (k, m, n1, n2)))

    def check(self, op: Op, res: CliResult) -> None:
        _, m, n1, n2 = op.spec
        expect(res.code == 0, f"exit {res.code}")
        expect(_last_line(res.stdout).endswith("(verified: True)"), "chain not reported verified")
        chain = serialize.parse_chain(res.written)
        expect(chain.level == m, f"chain level {chain.level}, expected {m}")
        expect(serialize.serialize_chain(chain) == res.written, "re-serialization is not byte-identical")
        step = chain.steps[-1]
        expect(step.name == "bezout-combination", f"last step is {step.name!r}")
        env = step.certificates[0].environment
        oracle.check_inverse_fields(env)
        # tracked pair of the method: x-slot 1 of the first two chunks of
        # 2(phi(m) + 1) coordinates, on the window 2 n1 n2 chunks wide
        chunk = 2 * (oracle.euler_phi(m) + 1)
        n, x0, p = 2 * n1 * n2 * chunk, 1, chunk + 1
        want = oracle.unit(n, x0)
        want[p] += m
        expect(oracle.push(step.word, env, n, oracle.unit(n, x0)) == want,
               f"Bezout word does not map x{x0} to x{x0} + {m} x{p}")
        expect(oracle.push(step.word, env, n, oracle.unit(n, p)) == oracle.unit(n, p),
               f"Bezout word does not fix x{p}")

    def artifact_bytes(self, first: list) -> int:
        return sum(len(r.written) for r in first if r is not None)

    def mutations(self, first: list) -> list[tuple[str, Op, Any]]:
        op, res = self.ops[0], first[0]
        if res is None:
            return []
        m = op.spec[1]
        obj = json.loads(res.written)
        obj["steps"][-1]["word"]["factors"][0]["exponent"] += 1
        return [
            ("wrong level", op, dataclasses.replace(
                res, written=res.written.replace(f'"level":{m},', f'"level":{m + 1},'))),
            ("false verdict", op, dataclasses.replace(
                res, stdout=res.stdout.replace("(verified: True)", "(verified: False)"))),
            ("changed Bezout exponent", op, dataclasses.replace(res, written=_canonical(obj))),
        ]


# -- verify ---------------------------------------------------------------------

GENUINE, TAMPERED, HOSTILE = "genuine", "tampered", "hostile"
HOSTILE_DEPTH = 3000


def hostile_certificate() -> str:
    """A window-identity certificate whose word nests 3,000 inverse tokens."""
    atom = '{"block":[[1,1],[0,1]],"variant":"uniform","window":[]}'
    word = '{"name":"a","op":"named"}'
    for _ in range(HOSTILE_DEPTH):
        word = '{"inner":' + word + ',"op":"inverse"}'
    return (
        '{"claim":"window-identity","env":{"a":' + atom + '},"format_version":1,'
        '"kind":"certificate","target_aut":' + atom + ',"windows":[2],"word":' + word + "}\n"
    )


def _bump_first_nonzero(vec: list[int]) -> None:
    i = next(i for i, x in enumerate(vec) if x)
    vec[i] += 1


class Verify(Workload):
    name = "verify"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.docs: list[tuple[str, Path, str]] = []  # (label, path, expected outcome)
        written: dict[str, str] = {}

        def add(label: str, text: str, outcome: str = GENUINE) -> None:
            path = workdir / f"{len(self.docs):02d}-{label}.cert"
            path.write_text(text)
            written[label] = text
            self.docs.append((label, path, outcome))

        def via_cli(label: str, argv: list[str]) -> None:
            path = workdir / f"{len(self.docs):02d}-{label}.cert"
            res = run_cli(argv + ["--out", str(path)], path)
            if res.code != 0:
                raise RuntimeError(f"set-up command {argv} exited {res.code}: {res.stderr}")
            written[label] = res.written
            self.docs.append((label, path, GENUINE))

        def matrix_file(label: str, rows: list[list[int]]) -> str:
            path = workdir / f"{label}.txt"
            path.write_text(_matrix_text(rows))
            return str(path)

        # Shapes are fixed and the seed picks entries, so every seed gives a
        # round of the same make-up and about the same cost.
        k = rng.choice((5, -5))
        chain = witness.km_pipeline(witness.canonical_shear(k, 4), (2, 3))
        add(f"chain-k{k}-m4", serialize.serialize_chain(chain))
        mc = rng.randint(2, 9)
        add(f"chain-clean-m{mc}", serialize.serialize_chain(witness.km_pipeline(witness.tau_power(mc))))
        for i, n in enumerate((2, 3, 4, 5, 6)):
            via_cli(f"shear{i}", ["shear", "--n", str(n), "--m", str(rng.randint(2, 9))])
        for i, d in enumerate((1, 2, 3, 2, 3)):
            via_cli(f"zaushko{i}", ["zaushko", matrix_file(f"rho{i}", random_unimodular(rng, d))])
        for i, d in enumerate((2, 2, 4, 2, 4)):
            f = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            via_cli(f"wans{i}", ["wans", matrix_file(f"f{i}", f)])
        for i in range(5):
            z = [[0, 0], [0, 0]]
            while not any(map(any, z)):
                z = [[rng.randint(-7, 7) for _ in range(2)] for _ in range(2)]
            via_cli(f"factor{i}", ["factor", matrix_file(f"z{i}", z), "--m", str(rng.choice([2, 3, 4, 6]))])

        # tampered twins: one target entry changed in each
        chain_label = self.docs[0][0]
        obj = json.loads(written[chain_label])
        _bump_first_nonzero(obj["steps"][-1]["certificates"][0]["target_vector"])
        add(f"tampered-{chain_label}", _canonical(obj), TAMPERED)
        obj = json.loads(written["zaushko0"])
        block = obj["target_aut"]["block"]
        block[0][len(block) // 2] += 1  # upper-right quadrant: stays unitriangular
        add("tampered-zaushko0", _canonical(obj), TAMPERED)
        obj = json.loads(written["wans0"])
        obj["target_matrix"][0][0] += 1
        add("tampered-wans0", _canonical(obj), TAMPERED)
        obj = json.loads(written["factor0"])
        window = obj["target_aut"]["window"]
        window[len(window) // 2][0] += 1  # lower-left quadrant m*z: stays unitriangular
        add("tampered-factor0", _canonical(obj), TAMPERED)

        add("hostile-deep-inverse", hostile_certificate(), HOSTILE)

        self.ops = [
            Op(f"verify {label}", partial(run_cli, ["verify", str(path)]), outcome)
            for label, path, outcome in self.docs
        ]
        self.doc_bytes = sum(len(written[label]) for label, _, _ in self.docs)

    def check(self, op: Op, res: CliResult) -> None:
        last = _last_line(res.stdout)
        if op.spec == GENUINE:
            expect(res.code == 0, f"genuine document: exit {res.code}")
            expect(last == "verified: True", f"genuine document: last line {last!r}")
            expect("MISMATCH" not in res.stdout, "genuine document: mismatch reported")
        elif op.spec == TAMPERED:
            expect(res.code == 1, f"tampered document: exit {res.code}")
            expect(last == "verified: False", f"tampered document: last line {last!r}")
            expect("MISMATCH" in res.stdout, "tampered document: no mismatch reported")
        else:
            expect(res.code == 1, f"hostile document: exit {res.code}")
            expect(res.stderr.startswith("error: "), "hostile document: no 'error:' line")
            expect("verified: True" not in res.stdout, "hostile document reported verified")

    def mutations(self, first: list) -> list[tuple[str, Op, Any]]:
        out = []
        for op, res in zip(self.ops, first):
            if res is None:
                continue
            if op.spec == GENUINE and not out:
                out.append(("false verdict on a genuine document", op, dataclasses.replace(
                    res, stdout=res.stdout.replace("verified: True", "verified: False"))))
            elif op.spec == TAMPERED and len(out) == 1:
                out.append(("tampered document accepted", op, dataclasses.replace(
                    res, code=0, stdout=res.stdout.replace("verified: False", "verified: True"))))
        return out


# -- classify -------------------------------------------------------------------

CLASSIFY_DOCS = 2000
PRIMES_TO_50 = oracle.primes_upto(50)

# The pair-witness search of a normal generator (a block of scalar defect 1)
# costs from well under 1 ms to over 100 ms, and a few slow blocks more or
# less moved a round's cost by up to 25 % from seed to seed.  So the number
# of generator blocks in each search-cost class is fixed per stratum and
# block dimension, at about the rates random blocks have: (class 1, class 2)
# per 2,000 documents, where class 1 tries 50 to 299 vectors and class 2 300
# to 599.  Class 3, 600 or more (about one block in 1,000 of dimension 4),
# is left out of the random draws, and every other block is class 0.  One
# fixed class-3 block, the same for every seed, keeps that tail measured:
# the first one drawn by random_unimodular(random.Random(0), 4), which tries
# 687 vectors (about 130 ms, against a median document of about 0.15 ms).
SEARCH_QUOTA = {
    ("uniform", 2): (65, 0), ("uniform", 3): (6, 0), ("uniform", 4): (14, 4),
    ("eventually", 2): (37, 0), ("eventually", 3): (6, 0),
}
SLOW_SEARCH_BLOCK = [[1, 0, 0, 0], [0, 1, 0, 0], [2, 6, 1, 0], [3, 12, 0, 1]]


def search_class(b) -> int:
    if oracle.scalar_defect(b) != 1:
        return 0
    tried = oracle.pair_search_length(b)
    return 0 if tried < 50 else 1 if tried < 300 else 2 if tried < 600 else 3


class SearchQuota:
    """Blocks left to take per dimension and search-cost class, for a
    stratum whose slots have the block dimensions ``dims``."""

    def __init__(self, stratum: str, dims: list[int], size: int) -> None:
        self.left = {}
        for d in set(dims):
            hard = [q * size // CLASSIFY_DOCS for q in SEARCH_QUOTA.get((stratum, d), (0, 0))]
            self.left[d] = [dims.count(d) - sum(hard), *hard, 0]

    def take(self, b) -> bool:
        """Count ``b`` in, if its class still has room."""
        left = self.left[len(b)]
        c = search_class(b)
        if not left[c]:
            return False
        left[c] -= 1
        return True


def build_corpus(rng: random.Random, size: int) -> list:
    """The acceptance tests' criterion-5 recipe, scaled to ``size`` items
    and stratified by shape.

    Random blocks keep their scalar defect within the sampled level range
    (<= 60) and leave shear-shaped blocks to the explicit anchors.  The
    twisted anchor [[9,4],[2,1]] is left out: its ladder builds a full
    general witness chain, which is the pipeline workload's cost.
    """
    mat = intmat.IntMatrix.from_rows
    corpus = [witness.tau_power(m) for m in (1, 2, 3, 4, 6)]
    corpus += [autrep.finitary((0,), mat([[-1]])), autrep.finitary((), mat([]))]
    corpus += [autrep.uniform(mat([[-1, 0], [0, -1]])), autrep.uniform(mat(SLOW_SEARCH_BLOCK))]
    corpus += [autrep.graded((2, 3), ()), autrep.graded((), (7,)),
               autrep.graded((5,), (2,), negated=True)]

    def usable(b):
        g = oracle.scalar_defect(b)
        return (0 < g <= 60 or g == 0) and witness.shear_shape(autrep.uniform(mat(b))) is None

    # Shapes cycle through fixed strata (block dimension, window size,
    # support size, prefix and exclusion lengths), and the search-cost
    # classes of generator blocks are fixed per stratum, so every seed gives
    # the same make-up and about the same cost.
    i = 0
    quota = SearchQuota("uniform", [k % 4 + 1 for k in range(size * 2 // 5 - len(corpus))], size)
    while len(corpus) < size * 2 // 5:
        b = random_unimodular(rng, i % 4 + 1)
        if usable(b) and quota.take(b):
            corpus.append(autrep.uniform(mat(b)))
            i += 1
    quota = SearchQuota("eventually", [k % 3 + 1 for k in range(i, i + size * 14 // 25 - len(corpus))],
                        size)
    while len(corpus) < size * 14 // 25:
        d = i % 3 + 1
        b = random_unimodular(rng, d)
        if not usable(b):
            continue
        n0 = d * (i // 3 % 2 + 1)
        aut = autrep.eventually_uniform(mat(random_unimodular(rng, n0)), mat(b))
        if witness.shear_shape(aut) is None and quota.take(b):
            corpus.append(aut)
            i += 1
    while len(corpus) < size * 19 // 25:
        support = tuple(sorted(rng.sample(range(10), i % 3 + 1)))
        corpus.append(autrep.finitary(support, mat(random_unimodular(rng, len(support)))))
        i += 1
    while len(corpus) < size:
        prefix = tuple(rng.choice([2, 3, 5, 7]) for _ in range(i % 4))
        excluded = tuple(rng.sample([11, 13], i // 4 % 3))
        corpus.append(autrep.graded(prefix or (rng.choice([2, 3]),), excluded, rng.random() < 0.3))
        i += 1
    return corpus


def classify_document(path: Path, start: int, size: int):
    """What ``infrank classify`` computes for one document, without argparse.

    The document is read from its byte range of the corpus file.
    """
    with open(path, "rb") as f:
        f.seek(start)
        text = f.read(size).decode()
    aut = serialize.parse_aut(text)
    info = classify.classification_summary(aut)
    chain = info["ladder"].chain
    return info, (witness.verify_chain(chain).ok if chain is not None else None)


def _levels_member(levels, p: int) -> bool:
    name = type(levels).__name__
    if name == "AllLevels":
        return True
    if name == "OnlyTrivial":
        return False
    if name == "DivisorsOf":
        return levels.g % p == 0
    return levels.member(p)


class Classify(Workload):
    name = "classify"

    def __init__(self, seed: int, workdir: Path) -> None:
        # The documents go into one corpus file, each operation reading its
        # own byte range: creating thousands of small files costs 0.4 to
        # 1.3 s on the same ext4 disk from one set-up to the next, which would
        # make setup_s measure the disk rather than the program.
        rng = random.Random(seed)
        self.ops = []
        path = workdir / "corpus.aut"
        blobs = []
        for i, aut in enumerate(build_corpus(rng, CLASSIFY_DOCS)):
            text = serialize.serialize_aut(aut)
            blob = text.encode()
            self.ops.append(Op(f"classify doc {i:05d}",
                               partial(classify_document, path, self.doc_bytes, len(blob)), text))
            blobs.append(blob)
            self.doc_bytes += len(blob)
        path.write_bytes(b"".join(blobs))

    @staticmethod
    def expected(raw: dict) -> dict:
        """Verdicts recomputed from the raw JSON entries."""
        variant = raw["variant"]
        if variant == "finitary":
            return {"gcd": oracle.entries_gcd_minus_identity(raw["matrix"]), "member": lambda p: True,
                    "radiation": True, "leveled": True, "rung": 0}
        if variant == "uniform":
            block = raw["block"]
            d = len(block)
            ident = [[int(i == j) for j in range(d)] for i in range(d)]
            radiation = block in (ident, [[-x for x in row] for row in ident])
            g = oracle.scalar_defect(block)
            leveled = g == 0 or (g >= 2 and min(oracle.prime_factors(g)) <= 60)
            generator = not radiation and not leveled
            return {"gcd": gcd(oracle.entries_gcd_minus_identity(raw["window"]),
                               oracle.entries_gcd_minus_identity(block)),
                    "member": partial(oracle.is_scalar_mod, block),
                    "radiation": radiation, "leveled": leveled,
                    "rung": 1 if generator else 0 if radiation else g}
        prefix, excluded = raw["prefix"], raw["excluded"]
        incs = oracle.graded_increments(prefix, excluded, raw["negated"], len(prefix) + 20)
        return {"gcd": abs(incs[0]), "member": lambda p: any(c % p == 0 for c in incs),
                "radiation": False, "leveled": True, "rung": None}

    def check(self, op: Op, out) -> None:
        info, chain_ok = out
        want = self.expected(json.loads(op.spec))
        expect(info["congruence_gcd"] == want["gcd"],
               f"congruence gcd {info['congruence_gcd']}, expected {want['gcd']}")
        for p in PRIMES_TO_50:
            brute = want["member"](p)
            expect(_levels_member(info["lambda_levels"], p) == brute, f"level {p}: expected {brute}")
            expect(info["nu_set"].contains(p) == brute, f"prime set at {p}: expected {brute}")
        expect(info["almost_radiation"] == want["radiation"], "almost-radiation verdict")
        expect(info["normal_generator"] == (not want["radiation"] and not want["leveled"]),
               "normal-generator verdict")
        ladder = info["ladder"]
        if want["rung"] is None:
            expect(ladder.kind == "no-maximal-level", f"graded ladder kind {ladder.kind!r}")
        else:
            expect(ladder.rung == want["rung"], f"ladder rung {ladder.rung}, expected {want['rung']}")
        expect(chain_ok in (None, True), "ladder witness chain does not verify")

    def digest(self, out) -> str:
        info, chain_ok = out
        ladder = info["ladder"]
        return _sha((
            info["congruence_gcd"], info["lambda_levels"], info["nu_set"], info["almost_radiation"],
            info["normal_generator"], info["generator_evidence"], ladder.kind, ladder.rung,
            ladder.scalar, ladder.note, len(ladder.chain.steps) if ladder.chain else None, chain_ok,
        ))

    def mutations(self, first: list) -> list[tuple[str, Op, Any]]:
        for op, out in zip(self.ops, first):
            if out is None or out[0]["ladder"].kind != "rung" or out[0]["ladder"].rung < 2:
                continue
            info, ok = out
            wrong_rung = dataclasses.replace(info["ladder"], rung=info["ladder"].rung + 1)
            return [
                ("wrong level", op, (dict(info, ladder=wrong_rung), ok)),
                ("false generator verdict", op,
                 (dict(info, normal_generator=not info["normal_generator"]), ok)),
                ("wrong congruence gcd", op,
                 (dict(info, congruence_gcd=info["congruence_gcd"] + 1), ok)),
            ]
        return []


# -- graded ---------------------------------------------------------------------

GRADED_WINDOWS = (100, 150, 200, 250, 300)
CERT_WINDOWS = (100, 200)


def _random_graded(rng: random.Random):
    """Prefix of two multipliers and one excluded prime: the seed picks the
    values, which barely move the cost of a window."""
    prefix = tuple(rng.choice([2, 3, 5, 7]) for _ in range(2))
    return autrep.graded(prefix, (rng.choice([11, 13]),), rng.random() < 0.5)


class Graded(Workload):
    name = "graded"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.ops = []

        def write(name: str, text: str) -> Path:
            path = workdir / name
            path.write_text(text)
            self.doc_bytes += len(text)
            return path

        for n in GRADED_WINDOWS:
            g = _random_graded(rng)
            path = write(f"g{n}.aut", serialize.serialize_aut(g))
            self.ops.append(Op(f"classify {path.name} --window {n}",
                               partial(run_cli, ["classify", str(path), "--window", str(n)]),
                               ("classify", g.prefix, sorted(g.excluded), g.negated, n)))
        g = _random_graded(rng)
        env = {"g": g}
        ident = autrep.identity_aut()
        claims = (
            ("inverse-pair", words.Product((words.Named("g"), words.Inverse(words.Named("g")))), True),
            ("square-is-identity", words.Product((words.Named("g"), words.Named("g"))), False),
        )
        for label, word, holds in claims:
            cert = words.Certificate(kind=words.WINDOW_IDENTITY, windows=CERT_WINDOWS,
                                     environment=env, word=word, target_aut=ident)
            path = write(f"{label}.cert", serialize.serialize_certificate(cert))
            self.ops.append(Op(f"verify {path.name}", partial(run_cli, ["verify", str(path)]),
                               ("verify", g.prefix, sorted(g.excluded), g.negated, holds)))

    def check(self, op: Op, res: CliResult) -> None:
        kind, prefix, excluded, negated, arg = op.spec
        if kind == "classify":
            n = arg
            incs = oracle.graded_increments(prefix, excluded, negated, n // 2)
            expect(res.code == 0, f"exit {res.code}")
            lines = res.stdout.splitlines()
            expect(lines[0] == f"congruence gcd: {abs(incs[0])}", f"first line {lines[0]!r}")
            expect("almost-radiation: False" in lines, "almost-radiation verdict")
            expect("normal generator: False" in lines, "normal-generator verdict")
            oracle.check_graded_window(lines[-(n + 1):], n, incs)
            return
        c0 = oracle.graded_increments(prefix, excluded, negated, 1)[0]
        last = _last_line(res.stdout)
        report = res.stdout.splitlines()[:-1]
        if arg:
            expect(res.code == 0 and last == "verified: True", "inverse-pair certificate refused")
            expect(report == [f"window {n}: identity holds" for n in CERT_WINDOWS],
                   "inverse-pair report lines")
        else:
            expect(res.code == 1 and last == "verified: False", "false claim g*g = id accepted")
            # g*g shears pair 0 by 2*c0, so the first difference is entry (1,0)
            expect(report == [f"window {n}: MISMATCH at entry (1,0): got {2 * c0}, expected 0"
                              for n in CERT_WINDOWS], "false-claim report lines")

    def mutations(self, first: list) -> list[tuple[str, Op, Any]]:
        out = []
        for op, res in zip(self.ops, first):
            if res is None:
                continue
            if op.spec[0] == "classify" and not out:
                lines = res.stdout.splitlines()
                row = lines[-1].split()
                row[-2] = str(int(row[-2]) + 1)  # the last pair's increment
                lines[-1] = " ".join(row)
                out.append(("changed window entry", op,
                            dataclasses.replace(res, stdout="\n".join(lines) + "\n")))
            elif op.spec[0] == "verify" and op.spec[4]:
                out.append(("false verdict on the inverse pair", op, dataclasses.replace(
                    res, code=1, stdout=res.stdout.replace("verified: True", "verified: False"))))
            elif op.spec[0] == "verify":
                out.append(("false claim accepted", op, dataclasses.replace(
                    res, code=0, stdout=res.stdout.replace("verified: False", "verified: True"))))
        return out


WORKLOADS = {w.name: w for w in (Pipeline, Verify, Classify, Graded)}
