"""Command-line front end.

Every subcommand either writes its artifacts and exits 0, or reports a
structured error; exit status 0 means every certificate touched by the run
verified.  Identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .autrep import window_matrix, window_pairs
from .classify import FinitePrimes, RuleBased, UnionWithPrefix, classification_summary
from .errors import InfrankError, ValidationError
from .filters import centered_check, counterexample_demo
from .selftest import run_selftest
from .serialize import (
    format_matrix_text,
    parse_aut,
    parse_descriptors,
    parse_document,
    parse_matrix_text,
    serialize_certificate,
    serialize_chain,
)
from .witness import (
    Certificate,
    WitnessChain,
    canonical_shear,
    factor_block_unitriangular,
    km_pipeline,
    order_n_shear,
    shear_order_certificate,
    tau_power,
    verify_chain,
    wans_sum_certificate,
    wans_three,
    zaushko_commutator,
)
from .words import verify_certificate


def _coprime_pair(text: str) -> tuple[int, int]:
    try:
        n1, n2 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected two integers like 2,3") from None
    return n1, n2


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers like 3,5,7") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infrank",
        description=(
            "exact-integer classification and witness engines for structured "
            "automorphisms of an infinite-rank free abelian group"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a serialized automorphism (.aut)")
    p.add_argument("aut_file", type=Path)
    p.add_argument("--window", type=int, default=None, help="also print this window matrix")

    p = sub.add_parser("shear", help="order-n shear matrices with an order certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("zaushko", help="commutator-shear word for rho acting on X")
    p.add_argument("rho_file", type=Path, help="matrix text file for rho")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("wans", help="decompose a matrix as a sum of three automorphisms")
    p.add_argument("f_file", type=Path, help="matrix text file (even dimension)")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("factor", help="three-conjugate factorization of a block-unitriangular element")
    p.add_argument("z_file", type=Path, help="matrix text file for the shear data Z")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("pipeline", help="witness chain from a shear-shaped automorphism")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coprime", type=_coprime_pair, default=(2, 3))
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("verify", help="recheck a serialized certificate or chain")
    p.add_argument("cert_file", type=Path)

    p = sub.add_parser("filters", help="prime-set machinery")
    fsub = p.add_subparsers(dest="filters_command", required=True)
    fc = fsub.add_parser("centered", help="centered-family check over a descriptor file")
    fc.add_argument("desc_file", type=Path)
    fc.add_argument("--size", type=int, default=2, help="maximal subfamily size")
    fd = fsub.add_parser("demo-counterexample", help="finite evidence for the ladder failure")
    fd.add_argument("--primes", type=_prime_list, required=True)
    fd.add_argument("--probe", type=int, required=True)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _emit(path: Path | None, default_name: str, payload: str) -> Path:
    target = path if path is not None else Path(default_name)
    # Written over in place and then cut to the payload, not opened with
    # O_TRUNC: on ext4 (auto_da_alloc) truncating a file with data to zero
    # starts its writeback on close, and the next truncating open of the
    # path waits for it.  A temporary file renamed over the target flushes
    # too, and would turn a symlink or a device into a regular file and drop
    # the target's mode; unlinking first would delete symlinks and devices.
    with open(os.open(target, os.O_WRONLY | os.O_CREAT, 0o666), "w") as out:
        out.write(payload)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()
    return target


def _describe_levels(levels) -> str:
    if isinstance(levels, RuleBased):
        return (
            f"rule-based: prefix {list(levels.block.prefix)}, tail primes outside "
            f"{sorted(levels.block.excluded)}"
        )
    return {0: "all levels", 1: "no level >= 2"}.get(levels.g, f"divisors of {levels.g}")


def _describe_primes(desc) -> str:
    if isinstance(desc, FinitePrimes):
        return "{" + ", ".join(map(str, sorted(desc.primes))) + "}"
    if desc == UnionWithPrefix(frozenset(), frozenset()):
        return "all primes"
    return f"{sorted(desc.finite)} together with all primes outside {sorted(desc.excluded)}"


# The engine commands below print "verified: True" without checking again:
# every engine verifies the certificates it returns and raises
# ValidationError on any failure, which main reports as "error: ..." with
# exit status 1 before anything is written.  Only ``verify`` rechecks, on
# documents read back from disk.


# the largest window ``classify --window`` prints, checked before any reading
MAX_PRINTED_WINDOW = 4096


def _cmd_classify(args) -> int:
    if (args.window or 0) > MAX_PRINTED_WINDOW:
        raise ValidationError(f"--window {args.window} exceeds the limit {MAX_PRINTED_WINDOW}")
    aut = parse_aut(args.aut_file.read_text())
    info = classification_summary(aut)
    # read before any of the report is printed, so a misaligned window is refused first
    rows = None if args.window is None else window_pairs(aut, args.window)
    print(f"congruence gcd: {info['congruence_gcd']}")
    print(f"level set: {_describe_levels(info['lambda_levels'])}")
    print(f"prime set: {_describe_primes(info['nu_set'])}")
    print(f"almost-radiation: {info['almost_radiation']}")
    print(f"normal generator: {info['normal_generator']}")
    ev = info["generator_evidence"]
    if ev.witness is not None:
        print(f"  witness pair: {list(ev.witness[0])} -> {list(ev.witness[1])}")
    elif ev.level is not None:
        print(f"  evidence: member at level {ev.level}")
    else:
        print(f"  evidence: {ev.kind}")
    ladder = info["ladder"]
    if ladder.kind == "no-maximal-level":
        print(f"ladder rung: {ladder.note}")
    else:
        print(f"ladder rung: {ladder.rung}")
        if ladder.scalar is not None:
            print(f"  scalar witness mod {ladder.rung}: {ladder.scalar}")
        if ladder.chain is not None:
            print(f"  witness chain: {len(ladder.chain.steps)} steps, verified: True")
        elif ladder.note:
            print(f"  note: {ladder.note}")
    if rows is not None:
        print(format_matrix_text(rows, args.window), end="")
    return 0


def _cmd_shear(args) -> int:
    triple = order_n_shear(args.n, args.m)
    cert = shear_order_certificate(triple)
    target = _emit(args.out, f"shear-n{args.n}-m{args.m}.cert", serialize_certificate(cert))
    print("lambda:")
    print(triple.lam)
    print("sigma:")
    print(triple.sigma)
    print("gamma = sigma^-1 lambda sigma:")
    print(triple.gamma)
    print(f"order-{args.n} certificate -> {target} (verified: True)")
    return 0


def _cmd_zaushko(args) -> int:
    rho = parse_matrix_text(args.rho_file.read_text())
    sigma, word, cert = zaushko_commutator(rho)
    target = _emit(args.out, f"zaushko-d{rho.rows}.cert", serialize_certificate(cert))
    print(f"sigma block ({2 * rho.rows} x {2 * rho.rows}):")
    print(window_matrix(sigma, 2 * rho.rows))
    print(f"certificate -> {target} (verified: True)")
    return 0


def _cmd_wans(args) -> int:
    f = parse_matrix_text(args.f_file.read_text())
    parts = wans_three(f)
    cert = wans_sum_certificate(f, parts)
    target = _emit(args.out, f"wans-d{f.rows}.cert", serialize_certificate(cert))
    for i, part in enumerate(parts, start=1):
        print(f"summand {i}: window")
        print(window_matrix(part, f.rows))
        print(f"tail block: {part.block.matrix.data}")
    print(f"sum certificate -> {target} (verified: True)")
    return 0


def _cmd_factor(args) -> int:
    z = parse_matrix_text(args.z_file.read_text())
    word, cert = factor_block_unitriangular(args.m, z)
    target = _emit(args.out, f"factor-m{args.m}-d{z.rows}.cert", serialize_certificate(cert))
    print(f"word: three conjugates of the modulus-{args.m} shear")
    print(f"certificate -> {target} (verified: True)")
    return 0


def _cmd_pipeline(args) -> int:
    phi = tau_power(args.m) if args.k == 1 else canonical_shear(args.k, args.m)
    chain = km_pipeline(phi, coprime=args.coprime)
    target = _emit(args.out, f"pipeline-k{args.k}-m{args.m}.cert", serialize_chain(chain))
    for step in chain.steps:
        print(f"step: {step.name}")
        if step.note:
            print(f"  {step.note}")
    print(f"scope: {chain.scope_note}")
    print(f"chain ({len(chain.steps)} steps) -> {target} (verified: True)")
    return 0


def _cmd_verify(args) -> int:
    doc = parse_document(args.cert_file.read_text())
    if isinstance(doc, WitnessChain):
        res = verify_chain(doc)
    elif isinstance(doc, Certificate):
        res = verify_certificate(doc)
    else:
        print("document contains no certificate to verify", file=sys.stderr)
        return 1
    for line in res.report:
        print(line)
    print(f"verified: {res.ok}")
    return 0 if res.ok else 1


def _cmd_filters(args) -> int:
    if args.filters_command == "centered":
        descriptors = parse_descriptors(args.desc_file.read_text())
        report = centered_check(descriptors, args.size)
        print(f"centered up to subfamilies of size {report.checked_size}: {report.verdict}")
        if report.verdict:
            for idx, prime in report.witnesses:
                print(f"  subfamily {list(idx)}: common prime {prime}")
        else:
            print(f"  empty intersection at subfamily {list(report.empty_subfamily)}")
        return 0 if report.verdict else 1
    report = counterexample_demo(args.primes, args.probe)
    for p, in2, inq in report.memberships:
        print(f"phi_{p}: in level 2: {in2}; in level {report.probe}: {inq}")
    print(f"all memberships verified: {report.all_verified}")
    if report.all_verified:
        print(
            "finite evidence: a modulus-2 shear in the closure of these elements "
            f"would force the whole level-2 congruence subgroup inside level {report.probe}, "
            "which the shear itself violates"
        )
    return 0 if report.all_verified else 1


def _cmd_selftest(args) -> int:
    results = run_selftest(args.seed)
    name_w = max(len(n) for n, _, _ in results)
    stmt_w = max(len(s) for _, s, _ in results)
    for name, statement, ok in results:
        print(f"{name.ljust(name_w)}  {statement.ljust(stmt_w)}  {'PASS' if ok else 'FAIL'}")
    failed = sum(1 for _, _, ok in results if not ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "shear": _cmd_shear,
    "zaushko": _cmd_zaushko,
    "wans": _cmd_wans,
    "factor": _cmd_factor,
    "pipeline": _cmd_pipeline,
    "verify": _cmd_verify,
    "filters": _cmd_filters,
    "selftest": _cmd_selftest,
}


# One parser per process, built on main's first call.  Reuse is safe:
# parse_args makes a fresh Namespace, every default is immutable, the type
# converters are pure, and usage errors go to the sys.stderr of the moment.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InfrankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
