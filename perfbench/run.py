"""Benchmark harness for infrank: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from
``src/``.  One run of a workload is one process:

1. set-up, repeated five or nine times (import of ``infrank``, input
   generation, writing of the input documents); ``setup_s`` is the median,
   scaled by the calibration loop like the latencies;
2. the timed phase: whole rounds of the workload's operations, one after
   the other, until ``--seconds`` have passed (at least one round);
3. the checks, outside the timed phase: the first round's outputs against
   the independent checks in ``workloads.py``, every later round against
   the first, and each check against deliberately wrong outputs.

With ``--trace 1`` the run instead times one untraced round, then traced
rounds for ``--seconds``, and reports the per-layer metrics of the traced
rounds, per round, plus ``trace.overhead_ratio``.  Spans are written to
``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pipeline", "verify", "classify", "graded")
# set-ups per run: more where one takes under 0.1 s and the median of five
# still spread by 10 % over runs
SETUP_REPS = {"pipeline": 9, "verify": 5, "classify": 5, "graded": 9}
DEFAULT_SEED = 1

# The 2-vCPU VM the figures were taken on alternates between speeds (up to 1.5x
# apart) for seconds to minutes at a time.  A fixed pure-Python loop, timed
# between operations at least every CAL_EVERY_S (and up to CAL_MAX_LOOPS
# times after a long operation), tracks the current speed; each latency is
# scaled to the speed at which the loop takes CAL_REF_S.
CAL_ITERS = 50_000
CAL_REF_S = 0.004
CAL_EVERY_S = 0.1
CAL_MAX_LOOPS = 10
CAL_WINDOW_S = 1.0


def calibration_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


def tail_latency(latencies: list[float]) -> tuple[int, float] | None:
    """(percentile, seconds) at the highest whole percentile with at least
    ten samples beyond it; None below forty samples."""
    n = len(latencies)
    if n < 40:
        return None
    ordered = sorted(latencies)
    for pct in range(99, 49, -1):
        idx = math.ceil(pct / 100 * n) - 1
        if n - idx - 1 >= 10:
            return pct, ordered[idx]
    return None


class Phase:
    """Outcome of whole rounds of a workload's operations."""

    def __init__(self) -> None:
        self.rounds = 0
        self.elapsed = 0.0
        self.spans: list[list[tuple[float, float]]] = []  # (start, end) per round, per operation
        self.cal: list[tuple[float, float]] = []  # (when taken, calibration loop seconds)
        self.errors: list[tuple[str, str]] = []  # (op label, exception) per raising op
        self.mismatches: list[str] = []  # later-round outputs that differ from the first


def run_rounds(wl, seconds: float, first: list, first_digest: list, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed; fill ``first`` with
    the outputs of the very first round when it is empty."""
    phase = Phase()
    start = time.perf_counter()

    def calibrate() -> None:
        # one loop per CAL_EVERY_S since the last one, at most CAL_MAX_LOOPS,
        # so a long operation is bracketed by many samples
        since = time.perf_counter() - phase.cal[-1][0] if phase.cal else seconds
        for _ in range(max(1, min(CAL_MAX_LOOPS, int(since / CAL_EVERY_S)))):
            took = calibration_loop()
            phase.cal.append((time.perf_counter(), took))

    while True:
        spans: list[tuple[float, float]] = []
        phase.spans.append(spans)
        for i, op in enumerate(wl.ops):
            if not phase.cal or time.perf_counter() - phase.cal[-1][0] >= CAL_EVERY_S:
                calibrate()
            if tracer is not None:
                tracer.begin_op(phase.rounds * len(wl.ops) + i)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                out = None
                phase.errors.append((op.label, f"{type(exc).__name__}: {exc}"[:160]))
            spans.append((t0, time.perf_counter()))
            if len(first) < len(wl.ops):
                first.append(out)
                first_digest.append(None if out is None else wl.digest(out))
            elif (None if out is None else wl.digest(out)) != first_digest[i]:
                phase.mismatches.append(op.label)
        phase.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    calibrate()
    phase.elapsed = time.perf_counter() - start
    return phase


def scaled_latencies(phase: Phase) -> list[list[float]]:
    """Latencies per round and operation, each scaled by the median of the
    calibrations from CAL_WINDOW_S before it starts to CAL_WINDOW_S after it
    ends (always including the one just before and the one just after)."""
    times = [t for t, _ in phase.cal]
    out = []
    for spans in phase.spans:
        row = []
        for t0, t1 in spans:
            lo = min(bisect.bisect_left(times, t0 - CAL_WINDOW_S), bisect.bisect_right(times, t0) - 1)
            hi = max(bisect.bisect_right(times, t1 + CAL_WINDOW_S), bisect.bisect_left(times, t1) + 1)
            loop_s = statistics.median(c for _, c in phase.cal[max(lo, 0) : hi])
            row.append((t1 - t0) * CAL_REF_S / loop_s)
        out.append(row)
    return out


def purge_program_modules() -> None:
    for name in list(sys.modules):
        if name == "infrank" or name.startswith("infrank.") or name == "workloads":
            del sys.modules[name]


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate and write inputs SETUP_REPS[name] times; keep the last.

    The count is fixed, so every run's set-ups add the same to its peak
    resident memory: each fresh import of the program keeps about 0.6 MiB
    of the one before it alive."""
    times: list[float] = []
    scaled: list[float] = []
    loop_s = statistics.median(calibration_loop() for _ in range(CAL_MAX_LOOPS))
    while len(times) < SETUP_REPS[name]:
        rep_dir = workdir / f"setup{len(times)}"
        rep_dir.mkdir(parents=True)
        # free the previous set-up, so it does not add to peak_rss_mib
        workloads = wl = None
        purge_program_modules()
        gc.collect()
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        wl = workloads.WORKLOADS[name](seed, rep_dir)
        times.append(time.perf_counter() - t0)
        # scaled like the latencies, by the calibrations before and after
        loop_after = statistics.median(calibration_loop() for _ in range(CAL_MAX_LOOPS))
        scaled.append(times[-1] * 2 * CAL_REF_S / (loop_s + loop_after))
        loop_s = loop_after
    return workloads, wl, statistics.median(scaled)


def check_outputs(workloads, wl, first: list, phases: list[Phase]) -> tuple[int, list[str]]:
    """(failed operations, problems that make the run incorrect)."""
    problems: list[str] = []
    failed = sum(len(p.errors) for p in phases)
    for op, out in zip(wl.ops, first):
        if out is None:
            continue
        try:
            wl.check(op, out)
        except workloads.CheckFailed as exc:
            problems.append(f"{op.label}: {exc}")
        except Exception as exc:  # a check that crashes on the output rejects it
            problems.append(f"{op.label}: check raised {type(exc).__name__}: {exc}"[:200])
    rounds = sum(p.rounds for p in phases)
    # a wrong first-round output fails that operation in every round
    failed += len(problems) * rounds
    for p in phases:
        failed += len(p.mismatches)
        problems += [f"{label}: output differs from the first round" for label in p.mismatches[:5]]
    mutations = wl.mutations(first)
    if not mutations:
        problems.append("no deliberately wrong outputs to test the checks with")
    for label, op, bad in mutations:
        try:
            wl.check(op, bad)
        except Exception:
            continue
        problems.append(f"check accepted a deliberately wrong output ({label}) for {op.label}")
    return failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workloads, wl, setup_s = set_up(name, seed, workdir)
    first: list = []
    first_digest: list = []
    lines: list[str] = []
    if not trace:
        phases = [run_rounds(wl, seconds, first, first_digest)]
        p = phases[0]
        attempted = sum(map(len, p.spans))
        # each operation's median scaled latency over the rounds
        per_op = [statistics.median(col) for col in zip(*scaled_latencies(p))]
        raw_op = [statistics.median(t1 - t0 for t0, t1 in col) for col in zip(*p.spans)]
        speed = statistics.median(c for _, c in p.cal) / CAL_REF_S
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "artifact_bytes": (wl.artifact_bytes(first), "bytes"),
        }
        tail = tail_latency(per_op)
        lines.append(
            f"{name}: {p.rounds} rounds of {len(wl.ops)} ops in {p.elapsed:.2f} s; "
            f"calibration loop at {speed:.3f}x its reference time; unscaled: "
            f"ops_per_s {len(raw_op) / sum(raw_op):.6g} op_p50_ms {statistics.median(raw_op) * 1e3:.6g}"
        )
        lines.append(f"{name}  {'op_tail_ms':32s} " + (
            f"{tail[1] * 1e3:14.6g} ms (p{tail[0]} of {len(per_op)} operations)" if tail else
            f"{'n/a':>14s} ({len(per_op)} operations per round < 40)"))
    else:
        from spans import Tracer

        base = run_rounds(wl, 0, first, first_digest)
        tracer = Tracer()
        tracer.install(workloads.MODULES)
        try:
            traced = run_rounds(wl, seconds, first, first_digest, tracer)
        finally:
            tracer.uninstall()
        phases = [base, traced]
        ratio = (traced.elapsed / traced.rounds) / (base.elapsed / base.rounds)
        metrics = tracer.layer_metrics(traced.rounds, ratio)
        attempted = sum(map(len, base.spans + traced.spans))
        lines.append(f"{name}: traced {traced.rounds} rounds in {traced.elapsed:.2f} s; "
                     f"self time per round by span:")
        for span, calls, incl, self_s in tracer.self_time_table(traced.rounds)[:15]:
            lines.append(f"  {span:28s} calls {calls:12.1f}  incl {incl:9.4f} s  self {self_s:9.4f} s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{name}-seed{seed}-spans.tsv"
        tracer.write_spans(spans_path)
        lines.append(f"spans: {len(tracer.records) // 5} written to {spans_path.relative_to(ROOT)}"
                     + (f" ({tracer.dropped} past the cap not stored)" if tracer.dropped else ""))
    failed, problems = check_outputs(workloads, wl, first, phases)
    for label, err in sorted(set(e for p in phases for e in p.errors)):
        lines.append(f"failed: {label}: {err}")
    for problem in problems:
        lines.append(f"WRONG: {problem}")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{name}  {metric:32s} {value:14.6g} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    src = ROOT / "src"
    if not (src / "infrank" / "__init__.py").is_file():
        print(f"perfbench: no infrank sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # leave no bytecode in the checkout, so every run's set-ups compile the
    # sources they import, the first run like the later ones
    sys.dont_write_bytecode = True
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
