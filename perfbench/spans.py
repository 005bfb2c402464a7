"""Span recorder for the per-layer report.

The recorder wraps public functions of the ``infrank`` modules from the
outside: it replaces each function, and every name in every ``infrank``
module that is bound to it, with a wrapper that opens a span, calls the
original and closes the span.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original back.

A span is (name, operation id, parent span, start ns, end ns).  Spans are
kept in memory and written out by ``write_spans`` when the run ends.  Per
name the recorder also keeps the call count, the inclusive time of the
outermost calls (recursion counted once) and the self time: a span's
duration minus the time its direct child spans cover.

``numth.next_prime`` runs about 10**5 to 10**6 times per round of the
``graded`` workload, so it is counted without spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# Safety cap on stored span records (five 8-byte integers each); aggregates
# keep counting past it.
MAX_SPANS = 500_000


def _max_bits(matrix) -> int:
    best = 0
    for row in matrix.data:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self._depth: list[int] = []
        self.records = array("q")
        self.dropped = 0
        self._open: list[int] = []  # record index of each open span, -1 past the cap
        self._child: list[int] = []  # child time accumulated by each open span
        self.op_id = 0
        self._restore: list[tuple[object, str, object]] = []
        # counters kept at the span boundaries
        self.next_prime_calls = 0
        self.mul_madds = 0
        self.max_dim = 0
        self.max_entry_bits = 0
        self.mul_under_verify = 0
        self.eval_keys: set[int] = set()  # distinct evaluations of the current operation
        self.eval_unique = 0  # distinct evaluations of the finished operations
        self.bytes_in = 0
        self.bytes_out = 0

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.incl_ns, self.self_ns, self._depth):
                lst.append(0)
        return nid

    def begin_op(self, op_id: int) -> None:
        """Spans opened from now on belong to operation ``op_id``."""
        self.op_id = op_id
        self.eval_unique += len(self.eval_keys)
        self.eval_keys.clear()

    def depth(self, name: str) -> int:
        return self._depth[self._ids[name]] if name in self._ids else 0

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        calls, incl, selfs, depth = self.calls, self.incl_ns, self.self_ns, self._depth
        records, open_, child = self.records, self._open, self._child

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = open_[-1] if open_ else -1
            if len(records) < 5 * MAX_SPANS:
                idx = len(records) // 5
                records.extend((nid, self.op_id, parent, 0, 0))
            else:
                idx = -1
                self.dropped += 1
            open_.append(idx)
            child.append(0)
            depth[nid] += 1
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                dur = t1 - t0
                open_.pop()
                inner = child.pop()
                depth[nid] -= 1
                calls[nid] += 1
                selfs[nid] += dur - inner
                if depth[nid] == 0:
                    incl[nid] += dur
                if child:
                    child[-1] += dur
                if idx >= 0:
                    records[5 * idx + 3] = t0
                    records[5 * idx + 4] = t1
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        """Point every ``infrank`` module name bound to ``orig`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "infrank" or modname.startswith("infrank.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        orig = getattr(module, attr)
        self._rebind(orig, self.wrap(name, orig, before, after))

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, before, after))

    def install(self, modules) -> None:
        """Instrument the layers named in the per-layer report.

        ``modules`` maps short names (``intmat``, ``autrep``, ...) to the
        imported ``infrank`` modules.
        """
        intmat, autrep, numth = modules["intmat"], modules["autrep"], modules["numth"]
        words, witness, classify = modules["words"], modules["witness"], modules["classify"]
        serialize, cli = modules["serialize"], modules["cli"]
        mat = intmat.IntMatrix

        def mul_before(args):
            a, b = args
            self.mul_madds += a.rows * a.cols * b.cols
            self.max_dim = max(self.max_dim, a.rows, a.cols, b.cols)
            if self.depth("words.verify_certificate"):
                self.mul_under_verify += 1

        def entry_bits(args, out):
            self.max_entry_bits = max(self.max_entry_bits, _max_bits(out))

        def eval_before(args):
            word, env, n = args
            try:
                key = hash((word, tuple(sorted(env.items())), n))
            except (RecursionError, TypeError):
                key = len(self.eval_keys) + (1 << 62)
            self.eval_keys.add(key)

        def parse_before(args):
            if not self.depth("serialize.parse"):
                self.bytes_in += len(args[0])

        def serialize_after(args, out):
            if self.depth("serialize.serialize") == 0:
                self.bytes_out += len(out)

        self.patch_method(mat, "__mul__", "intmat.mul", before=mul_before)
        self.patch_method(mat, "__post_init__", "intmat.construct")
        self.patch_method(mat, "power", "intmat.power")
        self.patch_method(mat, "inverse", "intmat.inverse", after=entry_bits)
        self.patch_method(mat, "det", "intmat.det")
        self.patch_function(intmat, "snf", "intmat.snf")

        self.patch_function(autrep, "window_matrix", "autrep.window_matrix", after=entry_bits)
        for ctor in ("finitary", "eventually_uniform", "graded"):
            self.patch_function(autrep, ctor, "autrep.construct")
        self.patch_function(autrep, "compose", "autrep.compose")
        self.patch_method(autrep.GradedBlock, "multiplier", "autrep.multiplier")

        orig_next_prime = numth.next_prime

        def next_prime(n):
            self.next_prime_calls += 1
            return orig_next_prime(n)

        self._rebind(orig_next_prime, next_prime)
        self.patch_function(numth, "factorize", "numth.factorize")

        self.patch_function(
            words, "evaluate_word", "words.evaluate_word", before=eval_before, after=entry_bits
        )
        self.patch_function(words, "verify_certificate", "words.verify_certificate")

        self.patch_function(witness, "km_pipeline", "witness.km_pipeline")
        self.patch_function(witness, "verify_chain", "witness.verify_chain")

        self.patch_function(classify, "classification_summary", "classify.summary")
        self.patch_function(classify, "is_normal_generator", "classify.normal_generator")
        self.patch_function(classify, "ladder_report", "classify.ladder_report")

        for fn in ("parse_aut", "parse_word", "parse_certificate", "parse_chain",
                   "parse_document", "parse_matrix_text"):
            self.patch_function(serialize, fn, "serialize.parse", before=parse_before)
        for fn in ("serialize_aut", "serialize_word", "serialize_certificate", "serialize_chain"):
            self.patch_function(serialize, fn, "serialize.serialize", after=serialize_after)
        self.patch_function(serialize, "format_matrix_text", "serialize.format_matrix_text")

        self.patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- report -----------------------------------------------------------------

    def _stat(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.incl_ns[nid], self.self_ns[nid]

    def layer_metrics(self, rounds: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round of the workload."""

        def calls(name):
            return self._stat(name)[0] / rounds

        def secs(name):
            return self._stat(name)[1] / 1e9 / rounds

        verify_calls = self._stat("words.verify_certificate")[0]
        eval_calls = self._stat("words.evaluate_word")[0]
        out: dict[str, tuple[float, str]] = {}
        for short in ("mul", "construct", "power"):
            out[f"intmat.{short}_calls"] = (calls(f"intmat.{short}"), "count")
            out[f"intmat.{short}_s"] = (secs(f"intmat.{short}"), "s")
            if short == "mul":
                out["intmat.mul_madds"] = (self.mul_madds / rounds, "count")
        out["intmat.max_dim"] = (self.max_dim, "count")
        for short in ("snf", "inverse", "det"):
            out[f"intmat.{short}_calls"] = (calls(f"intmat.{short}"), "count")
            out[f"intmat.{short}_s"] = (secs(f"intmat.{short}"), "s")
        out["intmat.max_entry_bits"] = (self.max_entry_bits, "bits")
        for short in ("window_matrix", "construct", "compose", "multiplier"):
            out[f"autrep.{short}_calls"] = (calls(f"autrep.{short}"), "count")
            out[f"autrep.{short}_s"] = (secs(f"autrep.{short}"), "s")
        out["numth.next_prime_calls"] = (self.next_prime_calls / rounds, "count")
        out["numth.factorize_calls"] = (calls("numth.factorize"), "count")
        out["numth.factorize_s"] = (secs("numth.factorize"), "s")
        for short in ("evaluate_word", "verify_certificate"):
            out[f"words.{short}_calls"] = (calls(f"words.{short}"), "count")
            out[f"words.{short}_s"] = (secs(f"words.{short}"), "s")
        out["words.eval_unique_ratio"] = (
            (self.eval_unique + len(self.eval_keys)) / eval_calls if eval_calls else 1.0,
            "ratio",
        )
        out["words.mul_per_certificate"] = (
            self.mul_under_verify / verify_calls if verify_calls else 0.0,
            "count",
        )
        out["witness.km_pipeline_s"] = (secs("witness.km_pipeline"), "s")
        out["witness.verify_chain_calls"] = (calls("witness.verify_chain"), "count")
        out["witness.verify_chain_s"] = (secs("witness.verify_chain"), "s")
        out["classify.summary_calls"] = (calls("classify.summary"), "count")
        out["classify.summary_s"] = (secs("classify.summary"), "s")
        out["classify.normal_generator_s"] = (secs("classify.normal_generator"), "s")
        out["classify.ladder_report_s"] = (secs("classify.ladder_report"), "s")
        out["serialize.parse_calls"] = (calls("serialize.parse"), "count")
        out["serialize.parse_s"] = (secs("serialize.parse"), "s")
        out["serialize.bytes_in"] = (self.bytes_in / rounds, "bytes")
        out["serialize.serialize_calls"] = (calls("serialize.serialize"), "count")
        out["serialize.serialize_s"] = (secs("serialize.serialize"), "s")
        out["serialize.bytes_out"] = (self.bytes_out / rounds, "bytes")
        out["serialize.format_matrix_text_s"] = (secs("serialize.format_matrix_text"), "s")
        out["cli.main_calls"] = (calls("cli.main"), "count")
        out["cli.self_s"] = (self._stat("cli.main")[2] / 1e9 / rounds, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def self_time_table(self, rounds: int) -> list[tuple[str, int, float, float]]:
        """(span name, calls, inclusive s, self s) per round, largest self time first."""
        rows = [
            (name, self.calls[i] / rounds, self.incl_ns[i] / 1e9 / rounds,
             self.self_ns[i] / 1e9 / rounds)
            for i, name in enumerate(self.names)
        ]
        return sorted(rows, key=lambda r: -r[3])

    def write_spans(self, path) -> None:
        """One line per span: name, operation id, parent index, start ns, end ns."""
        with open(path, "w") as fh:
            fh.write("# index\tname\top\tparent\tstart_ns\tend_ns\n")
            recs = self.records
            names = self.names
            for i in range(len(recs) // 5):
                nid, op, parent, t0, t1 = recs[5 * i : 5 * i + 5]
                fh.write(f"{i}\t{names[nid]}\t{op}\t{parent}\t{t0}\t{t1}\n")
