"""One-off reference figures that are too long for the repeated workloads.

    python3 perfbench/reference.py          # the short cases (about 1 minute)
    python3 perfbench/reference.py --long   # adds pipeline (3,7) and (3,8) (several minutes)

Run from the root of a source checkout.  Each figure is one run, timed
with ``time.perf_counter``; the README records them next to earlier
figures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infrank import cli, serialize, witness, words  # noqa: E402
from infrank.autrep import graded, identity_aut, window_matrix  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def pipeline_case(k: int, m: int, coprime: tuple[int, int], full: bool) -> str:
    chain, build = timed(witness.km_pipeline, witness.canonical_shear(k, m), coprime)
    text, ser = timed(serialize.serialize_chain, chain)
    parsed, parse = timed(serialize.parse_chain, text)
    line = f"pipeline ({k},{m}) coprime {coprime}: build {build:.2f} s, "
    if full:
        res, verify = timed(witness.verify_chain, chain)
        res2, verify2 = timed(witness.verify_chain, parsed)
        if not (res.ok and res2.ok):
            raise SystemExit(f"pipeline ({k},{m}): chain does not verify")
        line += f"verify_chain {verify:.2f} s, "
    line += f"serialize {ser:.3f} s, parse {parse:.2f} s"
    if full:
        line += f", verify of the parsed chain {verify2:.2f} s"
    return line + f", {len(text):,} bytes"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--long", action="store_true", help="also run pipeline (3,7) and (3,8)")
    args = parser.parse_args()

    print(pipeline_case(3, 4, (2, 3), True), flush=True)
    print(pipeline_case(2, 5, (2, 3), True), flush=True)
    print(pipeline_case(3, 4, (2, 5), True), flush=True)

    g = graded((2, 3), ())
    cert = words.Certificate(
        kind=words.WINDOW_IDENTITY, windows=(100, 200, 300), environment={"g": g},
        word=words.Product((words.Named("g"), words.Inverse(words.Named("g")))),
        target_aut=identity_aut(),
    )
    res, secs = timed(words.verify_certificate, cert)
    if not res.ok:
        raise SystemExit("graded inverse-pair certificate does not verify")
    print(f"graded certificate g * g^-1 = id on windows (100, 200, 300): {secs:.2f} s", flush=True)
    for n in (400, 600):
        w, secs = timed(window_matrix, g, n)
        bits = max(abs(x).bit_length() for x in w.entries())
        print(f"graded window {n}: {secs:.2f} s, largest entry {bits:,} bits", flush=True)

    reps = 200
    _, secs = timed(lambda: [cli.build_parser() for _ in range(reps)])
    print(f"cli.build_parser: {secs / reps * 1e3:.2f} ms per call", flush=True)

    if args.long:
        for k, m in ((3, 7), (3, 8)):
            print(pipeline_case(k, m, (2, 3), False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
