import argparse
import io
import json
import os
import stat
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from infrank import cli, words
from infrank.cli import main
from infrank.errors import ParseError, ValidationError
from infrank.intmat import IntMatrix
from infrank.serialize import (
    parse_chain,
    parse_document,
    serialize_aut,
    serialize_certificate,
    serialize_chain,
)
from infrank.witness import (
    canonical_shear,
    km_pipeline,
    order_n_shear,
    shear_order_certificate,
    tau_power,
    wans_three,
    zaushko_commutator,
)
from infrank.words import (
    ACTION_ON_VECTOR,
    WINDOW_IDENTITY,
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    VerifyResult,
)
from infrank.autrep import finitary, graded, identity_aut, uniform, window_matrix

import oracles
from helpers import matrix_text, run, run_child


def test_classify_tau(tmp_path, capsys):
    aut_file = tmp_path / "tau.aut"
    aut_file.write_text(serialize_aut(tau_power(1)))
    code, out, _ = run(["classify", str(aut_file)], capsys)
    assert code == 0
    assert "normal generator: True" in out
    assert "ladder rung: 1" in out


def test_classify_shear4(tmp_path, capsys):
    aut_file = tmp_path / "t4.aut"
    aut_file.write_text(serialize_aut(tau_power(4)))
    code, out, _ = run(["classify", str(aut_file)], capsys)
    assert code == 0
    assert "congruence gcd: 4" in out
    assert "divisors of 4" in out
    assert "ladder rung: 4" in out
    assert "witness chain" in out


def test_classify_graded_no_max(tmp_path, capsys):
    aut_file = tmp_path / "g.aut"
    aut_file.write_text(serialize_aut(graded((2, 3), ())))
    code, out, _ = run(["classify", str(aut_file)], capsys)
    assert code == 0
    assert "no maximal level" in out


def test_classify_window_past_the_text_limit_is_an_error(tmp_path, capsys):
    """Window 3000 of a graded block holds an entry past the 4,300 digits
    Python writes: the report is printed, then one error line, exit 1."""
    aut_file = tmp_path / "g.aut"
    aut_file.write_text(serialize_aut(graded((2, 3), (11,))))
    code, out, err = run(["classify", str(aut_file), "--window", "3000"], capsys)
    assert code == 1
    assert out.endswith(NO_RUNG + "\n")
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("aut", [graded((2, 3), (11,)), uniform(IntMatrix.from_rows([[1, 1], [0, 1]]))])
@pytest.mark.parametrize("n", [cli.MAX_PRINTED_WINDOW + 1, 10**7])
def test_classify_refuses_a_window_past_the_limit(tmp_path, capsys, aut, n):
    """A window past ``MAX_PRINTED_WINDOW`` is one error line and exit 1,
    before the document is read: a missing file gives the same line."""
    aut_file = tmp_path / "b.aut"
    aut_file.write_text(serialize_aut(aut))
    line = f"error: --window {n} exceeds the limit 4096\n"
    for path in (aut_file, tmp_path / "missing.aut"):
        assert run(["classify", str(path), "--window", str(n)], capsys) == (1, "", line)


@pytest.mark.parametrize(
    "aut, n, line",
    [
        (graded((2, 3), (11,)), 7, "error: graded windows must be even\n"),
        (graded((2, 3), (11,)), -2, "error: window size must be nonnegative\n"),
        (uniform(IntMatrix.from_rows([[1, 1], [0, 1]])), -2,
         "error: window size must be nonnegative\n"),
        (uniform(IntMatrix.from_rows([[1, 1], [0, 1]])), 3,
         "error: window 3 misaligned for window 0 + blocks of 2\n"),
        (finitary((0, 4), IntMatrix.from_rows([[0, 1], [1, 0]])), 4,
         "error: window 4 does not cover finitary support up to 4\n"),
    ],
)
def test_classify_refuses_a_misaligned_window_before_the_report(tmp_path, capsys, aut, n, line):
    """A negative or misaligned window is one error line and exit 1, with
    nothing of the report printed before it."""
    aut_file = tmp_path / "w.aut"
    aut_file.write_text(serialize_aut(aut))
    assert run(["classify", str(aut_file), "--window", str(n)], capsys) == (1, "", line)


HUGE_EXCLUDED = (
    '{"excluded":[%d],"format_version":1,"kind":"aut","negated":false,"prefix":[2],'
    '"variant":"graded"}'
)


def test_classify_with_a_huge_excluded_prime_is_quick(tmp_path):
    """An excluded prime of 19 digits is tested by Miller-Rabin, not by
    trial division that would run for minutes."""
    aut_file = tmp_path / "g.aut"
    aut_file.write_text(HUGE_EXCLUDED % 1000000000000000003)
    proc = run_child(["-m", "infrank", "classify", str(aut_file)], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "prime set: [2] together with all primes outside [1000000000000000003]\n" in proc.stdout


def test_classify_with_a_huge_prime_congruence_gcd_is_quick(tmp_path):
    """The congruence gcd 10^18 + 3 is prime: factorizing it for the prime
    set stops at its primality test instead of trial division up to 10^9."""
    aut_file = tmp_path / "u.aut"
    aut_file.write_text(
        '{"block":[[1,1000000000000000003],[0,1]],"format_version":1,"kind":"aut",'
        '"variant":"uniform","window":[]}'
    )
    proc = run_child(["-m", "infrank", "classify", str(aut_file)], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(
        "congruence gcd: 1000000000000000003\n"
        "level set: divisors of 1000000000000000003\n"
        "prime set: {1000000000000000003}\n"
    )


def test_classify_refuses_an_exclusion_past_the_primality_bound(tmp_path, capsys):
    aut_file = tmp_path / "g.aut"
    aut_file.write_text(HUGE_EXCLUDED % 3317044064679887385961981)
    code, out, err = run(["classify", str(aut_file)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: $: primality of 3317044064679887385961981 is not decided at or above "
        "3317044064679887385961981\n"
    )


def _classify_lines(gcd, levels, primes, radiation, generator, evidence, *ladder):
    return [f"congruence gcd: {gcd}", f"level set: {levels}", f"prime set: {primes}",
            f"almost-radiation: {radiation}", f"normal generator: {generator}", evidence, *ladder]


NO_RUNG = "ladder rung: no maximal level; ladder rung undefined"

# the full classify report of each representation class and level-set shape
CLASSIFY_TABLE = [
    ("finitary-minus-one", finitary((0,), IntMatrix.from_rows([[-1]])),
     _classify_lines(2, "all levels", "all primes", True, False, "  evidence: almost-radiation",
                     "ladder rung: 0")),
    ("uniform-minus-identity", uniform(IntMatrix.from_rows([[-1, 0], [0, -1]])),
     _classify_lines(2, "all levels", "all primes", True, False, "  evidence: almost-radiation",
                     "ladder rung: 0")),
    ("generator-block", uniform(IntMatrix.from_rows([[2, 1], [1, 1]])),
     _classify_lines(1, "no level >= 2", "{}", False, True,
                     "  witness pair: [-3, -2] -> [-8, -5]", "ladder rung: 1")),
    ("divisors-of-7", uniform(IntMatrix.from_rows([[1, 0], [7, 1]])),
     _classify_lines(7, "divisors of 7", "{7}", False, False, "  evidence: member at level 7",
                     "ladder rung: 7", "  scalar witness mod 7: 1",
                     "  note: lower bound guaranteed by the one-generator ladder theorem; "
                     "witness chain not constructed for this block shape")),
    ("graded-prefix", graded((2, 3), ()),
     _classify_lines(2, "rule-based: prefix [2, 3], tail primes outside []",
                     "[2, 3] together with all primes outside []", False, False,
                     "  evidence: member at level 2", NO_RUNG)),
    ("graded-excluded", graded((), (7,)),
     _classify_lines(2, "rule-based: prefix [], tail primes outside [7]",
                     "[] together with all primes outside [7]", False, False,
                     "  evidence: member at level 2", NO_RUNG)),
    ("graded-negated", graded((5,), (2,), negated=True),
     _classify_lines(5, "rule-based: prefix [5], tail primes outside [2]",
                     "[5] together with all primes outside [2]", False, False,
                     "  evidence: member at level 5", NO_RUNG)),
    # no prefix and no exclusion: every prime, as for a finitary automorphism
    ("graded-empty", graded((), ()),
     _classify_lines(2, "rule-based: prefix [], tail primes outside []", "all primes", False,
                     False, "  evidence: member at level 2", NO_RUNG)),
]


@pytest.mark.parametrize(
    "aut, lines", [case[1:] for case in CLASSIFY_TABLE], ids=[c[0] for c in CLASSIFY_TABLE]
)
def test_classify_report_table(tmp_path, capsys, aut, lines):
    aut_file = tmp_path / "a.aut"
    aut_file.write_text(serialize_aut(aut))
    assert run(["classify", str(aut_file)], capsys) == (0, "\n".join(lines) + "\n", "")


def test_shear_writes_certificate(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["shear", "--n", "3", "--m", "5"], capsys)
    assert code == 0
    assert "-5" in out  # sigma matrix contains -m
    cert = parse_document((tmp_path / "shear-n3-m5.cert").read_text())
    from infrank.words import verify_certificate

    assert verify_certificate(cert).ok


@pytest.mark.parametrize("n, m", [(2, 3), (3, 5), (6, 7)])
def test_shear_prints_matrices_as_before(tmp_path, capsys, monkeypatch, n, m):
    """The three matrices read as the two-pass ``str`` wrote them."""
    monkeypatch.chdir(tmp_path)
    t = order_n_shear(n, m)
    code, out, _ = run(["shear", "--n", str(n), "--m", str(m)], capsys)
    assert code == 0
    shown = [oracles.matrix_str(x) for x in (t.lam, t.sigma, t.gamma)]
    assert out == (
        "lambda:\n{}\nsigma:\n{}\ngamma = sigma^-1 lambda sigma:\n{}\n".format(*shown)
        + f"order-{n} certificate -> shear-n{n}-m{m}.cert (verified: True)\n"
    )


@pytest.mark.parametrize("rho", [[[-1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]])
def test_zaushko_prints_sigma_as_before(tmp_path, capsys, rho):
    rho_file = tmp_path / "rho.txt"
    rho_file.write_text(matrix_text(IntMatrix.from_rows(rho)))
    sigma, _, _ = zaushko_commutator(IntMatrix.from_rows(rho))
    d = 2 * len(rho)
    code, out, _ = run(["zaushko", str(rho_file), "--out", str(tmp_path / "z.cert")], capsys)
    assert code == 0
    assert out.startswith(
        f"sigma block ({d} x {d}):\n{oracles.matrix_str(window_matrix(sigma, d))}\n"
    )


def test_zaushko_cli(tmp_path, capsys):
    rho = tmp_path / "rho.txt"
    rho.write_text(matrix_text(IntMatrix.from_rows([[-1]])))
    out_file = tmp_path / "z.cert"
    code, out, _ = run(["zaushko", str(rho), "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.exists()


def test_wans_cli(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text(matrix_text(IntMatrix.from_rows([[5, 0], [0, 7]])))
    out_file = tmp_path / "w.cert"
    code, out, _ = run(["wans", str(f), "--out", str(out_file)], capsys)
    assert code == 0
    shown = "".join(
        f"summand {i}: window\n{oracles.matrix_str(window_matrix(part, 2))}\n"
        f"tail block: {part.block.matrix.data}\n"
        for i, part in enumerate(wans_three(IntMatrix.from_rows([[5, 0], [0, 7]])), start=1)
    )
    assert out == shown + f"sum certificate -> {out_file} (verified: True)\n"


def test_factor_cli(tmp_path, capsys):
    z = tmp_path / "z.txt"
    z.write_text(matrix_text(IntMatrix.from_rows([[2, 1], [0, 1]])))
    out_file = tmp_path / "f.cert"
    code, _, _ = run(["factor", str(z), "--m", "2", "--out", str(out_file)], capsys)
    assert code == 0


def test_pipeline_cli_and_verify(tmp_path, capsys):
    out_file = tmp_path / "chain.cert"
    code, out, _ = run(
        ["pipeline", "--k", "3", "--m", "2", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert "euler-gcd-reduction" in out
    chain = parse_chain(out_file.read_text())
    assert chain.level == 2
    code, out, _ = run(["verify", str(out_file)], capsys)
    assert code == 0
    assert "verified: True" in out


def test_verify_rejects_tampered(tmp_path, capsys):
    _, _, cert = zaushko_commutator(IntMatrix.from_rows([[-1]]))
    text = serialize_certificate(cert)
    broken = text.replace('"block":[[1,2],[0,1]]', '"block":[[1,3],[0,1]]')
    assert broken != text
    cert_file = tmp_path / "bad.cert"
    cert_file.write_text(broken)
    code, out, _ = run(["verify", str(cert_file)], capsys)
    assert code == 1
    assert "MISMATCH" in out


def test_verify_huge_entry_mismatch(tmp_path, capsys):
    """A false identity claim whose first differing entry has about 41,800
    digits, past what Python writes in decimal, is refused with a MISMATCH
    line that gives the entry's bit length and digest."""
    a = finitary((0, 1), IntMatrix.from_rows([[2, 1], [1, 1]]))
    cert = Certificate(
        kind=WINDOW_IDENTITY,
        windows=(2,),
        environment={"a": a},
        word=Power(Named("a"), 100000),
        target_aut=identity_aut(),
    )
    cert_file = tmp_path / "huge.cert"
    cert_file.write_text(serialize_certificate(cert))
    code, out, err = run(["verify", str(cert_file)], capsys)
    assert (code, err) == (1, "")
    assert out == (
        "window 2: MISMATCH at entry (0,0): got <138848-bit integer, sha256 3f2ff8b20606>, "
        "expected 1\nverified: False\n"
    )


def test_verify_2001_bit_entry_mismatch_is_decimal(tmp_path, capsys):
    """An entry Python still writes in decimal is printed in full."""
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    cert = Certificate(
        kind=WINDOW_IDENTITY,
        windows=(2,),
        environment={"a": finitary((0, 1), a)},
        word=Power(Named("a"), 1441),
        target_aut=identity_aut(),
    )
    cert_file = tmp_path / "big.cert"
    cert_file.write_text(serialize_certificate(cert))
    code, out, err = run(["verify", str(cert_file)], capsys)
    got = a.power(1441).data[0][0]
    assert got.bit_length() == 2001
    assert (code, err) == (1, "")
    assert out == f"window 2: MISMATCH at entry (0,0): got {got}, expected 1\nverified: False\n"


def test_verify_malformed_is_error_not_false(tmp_path, capsys):
    cert_file = tmp_path / "broken.cert"
    cert_file.write_text("{not json")
    code, _, err = run(["verify", str(cert_file)], capsys)
    assert code == 1
    assert "error:" in err


def test_verify_directory_is_error(tmp_path, capsys):
    code, _, err = run(["verify", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: ")


def test_out_directory_is_error(tmp_path, capsys):
    """``shear`` writes before it prints, so a failed write prints one error
    line and nothing else."""
    argv = ["shear", "--n", "2", "--m", "4", "--out", str(tmp_path)]
    assert run(argv, capsys) == (1, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["zaushko", "{matrix}"], [[0, 1], [1, 0]]),
        (["wans", "{matrix}"], [[5, 0], [0, 7]]),
        (["factor", "{matrix}", "--m", "2"], [[2, 1], [0, 1]]),
        (["pipeline", "--k", "1", "--m", "5"], None),
    ],
    ids=["zaushko", "wans", "factor", "pipeline"],
)
def test_a_failed_write_prints_only_the_error(tmp_path, capsys, argv, rows):
    """The other writing commands also write before they print."""
    matrix = tmp_path / "input.txt"
    if rows is not None:
        matrix.write_text(matrix_text(IntMatrix.from_rows(rows)))
    argv = [arg.format(matrix=matrix) for arg in argv] + ["--out", str(tmp_path)]
    assert run(argv, capsys) == (1, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_out_missing_parent_is_error(tmp_path, capsys):
    target = tmp_path / "missing" / "s.cert"
    code, _, err = run(["shear", "--n", "2", "--m", "4", "--out", str(target)], capsys)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


SHEAR = ["shear", "--n", "2", "--m", "4", "--out"]


def _fresh_shear_bytes(tmp_path, capsys) -> bytes:
    fresh = tmp_path / "fresh.cert"
    assert run(SHEAR + [str(fresh)], capsys)[0] == 0
    return fresh.read_bytes()


def test_out_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path, capsys):
    want = _fresh_shear_bytes(tmp_path, capsys)
    target = tmp_path / "s.cert"
    target.write_bytes(b"x" * (3 * len(want)))
    assert run(SHEAR + [str(target)], capsys)[0] == 0
    assert target.read_bytes() == want


def test_out_through_a_symlink_writes_its_target_and_keeps_the_link(tmp_path, capsys):
    want = _fresh_shear_bytes(tmp_path, capsys)
    real, link = tmp_path / "real.cert", tmp_path / "link.cert"
    real.write_text("old contents, longer than nothing\n" * 100)
    link.symlink_to(real)
    assert run(SHEAR + [str(link)], capsys)[0] == 0
    assert link.is_symlink() and link.readlink() == real
    assert real.read_bytes() == want


def test_out_dev_null_exits_0(capsys):
    code, out, err = run(SHEAR + ["/dev/null"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("order-2 certificate -> /dev/null (verified: True)\n")


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    target = tmp_path / "s.cert"
    target.write_text("old")
    target.chmod(0o640)
    assert run(SHEAR + [str(target)], capsys)[0] == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_bytes() == _fresh_shear_bytes(tmp_path, capsys)


def test_out_opens_without_truncating(tmp_path, capsys, monkeypatch):
    """The target is written over in place: a truncating open of a file
    that holds data makes ext4 flush it, and the next such open waits."""
    flags = []
    os_open = cli.os.open
    monkeypatch.setattr(cli.os, "open", lambda path, flag, *a: flags.append(flag) or os_open(path, flag, *a))
    assert run(SHEAR + [str(tmp_path / "s.cert")], capsys)[0] == 0
    assert flags == [os.O_WRONLY | os.O_CREAT]


def test_filters_centered_cli(tmp_path, capsys):
    desc = {
        "format_version": 1,
        "kind": "descriptors",
        "items": [
            {"type": "finite", "primes": [2, 3]},
            {"type": "finite", "primes": [3, 5]},
        ],
    }
    desc_file = tmp_path / "desc.json"
    desc_file.write_text(json.dumps(desc))
    code, out, _ = run(["filters", "centered", str(desc_file)], capsys)
    assert code == 0
    assert "common prime 3" in out


@pytest.mark.parametrize(
    "item, path",
    [
        ({"type": "finite", "primes": [4, 9]}, "$.items[0].primes"),
        ({"type": "all-except", "excluded": [1]}, "$.items[0].excluded"),
        ({"type": "union-with-prefix", "finite": [6], "excluded": []}, "$.items[0].finite"),
    ],
)
def test_filters_centered_refuses_non_primes(tmp_path, capsys, item, path):
    desc = {"format_version": 1, "kind": "descriptors",
            "items": [item, {"type": "finite", "primes": [4]}]}
    desc_file = tmp_path / "desc.json"
    desc_file.write_text(json.dumps(desc))
    code, out, err = run(["filters", "centered", str(desc_file), "--size", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and err.endswith(" is not prime\n")


def test_unknown_subcommand_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _call(argv):
    """(exit status, stdout, stderr) of one in-process ``main`` call, with both
    streams redirected for that call only."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


DEMO = ["filters", "demo-counterexample", "--primes", "3,5", "--probe", "7"]
BAD_COPRIME = ["pipeline", "--k", "1", "--m", "3", "--coprime", "2"]

# consecutive main calls in one process; each must print, exit and write as
# the same call through a freshly built parser does
REUSE_TABLE = [
    ("window-not-leaked", [["classify", "f.aut", "--window", "5"], ["classify", "f.aut"]]),
    ("coprime-not-leaked", [["pipeline", "--k", "1", "--m", "3", "--coprime", "2,5", "--out", "a.cert"],
                            ["pipeline", "--k", "1", "--m", "3", "--out", "b.cert"]]),
    ("nested-subcommands", [["filters", "centered", "d.json"], DEMO]),
    ("usage-error-twice", [BAD_COPRIME, BAD_COPRIME]),
]


@pytest.mark.parametrize("calls", [c for _, c in REUSE_TABLE], ids=[n for n, _ in REUSE_TABLE])
def test_reused_parser_matches_a_fresh_one(tmp_path, monkeypatch, calls):
    """Same arguments handed to the command, output, exit status and files."""
    parsed = []
    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args, command=command: parsed.append(dict(vars(args))) or command(args))

    def run_all(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("f.aut").write_text(serialize_aut(finitary((0,), IntMatrix.from_rows([[-1]]))))
        Path("d.json").write_text(json.dumps({"format_version": 1, "kind": "descriptors", "items": [
            {"type": "finite", "primes": [2, 3]}, {"type": "finite", "primes": [3, 5]}]}))
        results = [_call(argv) for argv in calls]
        return results, {p.name: p.read_bytes() for p in Path().glob("*.cert")}

    reused = run_all("reused")
    fresh_args = [vars(cli.build_parser().parse_args(argv)) for argv in calls if argv != BAD_COPRIME]
    assert parsed == fresh_args
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == run_all("fresh")
    if calls[0] == BAD_COPRIME:
        for code, out, err in reused[0]:
            assert (code, out) == (2, "")
            assert err.startswith("usage: infrank pipeline ")
            assert err.endswith("error: argument --coprime: expected two integers like 2,3\n")


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    assert _call(DEMO)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [_call(DEMO)[0] for _ in range(20)] == [0] * 20
    assert built == []
    cli.build_parser()  # still a fresh parser: the root and its 11 subcommand parsers
    assert len(built) == 12


def test_byte_identical_artifacts(tmp_path, capsys):
    a = tmp_path / "a.cert"
    b = tmp_path / "b.cert"
    assert main(["pipeline", "--k", "1", "--m", "3", "--out", str(a)]) == 0
    assert main(["pipeline", "--k", "1", "--m", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# sha256 of the exit status and stdout of in-process `infrank selftest --seed s`
# for s = 0..20, recorded before the checks became the invariant tests
SELFTEST_DIGEST = "5c64a2f6f9fe37b1b6ed30ddcc16716f1cabcc13e95a1f04e21524198527d9ad"


def test_selftest_output_is_unchanged(capsys):
    import hashlib

    digest = hashlib.sha256()
    for seed in range(21):
        code, out, _ = run(["selftest", "--seed", str(seed)], capsys)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SELFTEST_DIGEST


def test_python_dash_m_runs_the_cli():
    proc = run_child(["-m", "infrank", "selftest"], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("17/17 checks passed\n")


def _patch_verify(monkeypatch, make):
    """Replace verify_certificate in every infrank module that imported it."""
    orig = words.verify_certificate
    replacement = make(orig)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "infrank" and getattr(mod, "verify_certificate", None) is orig:
            monkeypatch.setattr(mod, "verify_certificate", replacement)


def _record_verifications(monkeypatch) -> list[str]:
    seen: list[str] = []

    def make(orig):
        def recording(cert, *walks):
            seen.append(serialize_certificate(cert))
            return orig(cert, *walks)

        return recording

    _patch_verify(monkeypatch, make)
    return seen


def test_pipeline_verifies_each_certificate_once(tmp_path, capsys, monkeypatch):
    seen = _record_verifications(monkeypatch)
    out_file = tmp_path / "chain.cert"
    code, out, _ = run(["pipeline", "--k", "3", "--m", "2", "--out", str(out_file)], capsys)
    assert code == 0
    assert "(verified: True)" in out
    calls = Counter(seen)
    chain = parse_chain(out_file.read_text())
    written = [serialize_certificate(c) for step in chain.steps for c in step.certificates]
    # besides the chain, only the order certificates of the two order-n shears are checked
    shears = [serialize_certificate(shear_order_certificate(order_n_shear(n, 2))) for n in (2, 3)]
    assert calls == Counter(written) + Counter(shears)


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["zaushko", "{matrix}"], [[0, 1], [1, 0]]),
        (["shear", "--n", "3", "--m", "5"], None),
        (["wans", "{matrix}"], [[5, 0], [0, 7]]),
        (["factor", "{matrix}", "--m", "2"], [[2, 1], [0, 1]]),
    ],
    ids=["zaushko", "shear", "wans", "factor"],
)
def test_engine_verifies_its_certificate_once(tmp_path, capsys, monkeypatch, argv, rows):
    matrix = tmp_path / "input.txt"
    if rows is not None:
        matrix.write_text(matrix_text(IntMatrix.from_rows(rows)))
    seen = _record_verifications(monkeypatch)
    out_file = tmp_path / "out.cert"
    argv = [arg.format(matrix=matrix) for arg in argv] + ["--out", str(out_file)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "(verified: True)" in out
    assert seen == [out_file.read_text()]


def _fail_verification(monkeypatch) -> None:
    def make(orig):
        return lambda cert, *walks: VerifyResult(False, ("window 2: MISMATCH forced by the test",))

    _patch_verify(monkeypatch, make)


def test_failed_verification_raises_in_pipeline(monkeypatch):
    _fail_verification(monkeypatch)
    with pytest.raises(ValidationError, match="MISMATCH forced"):
        km_pipeline(tau_power(3))
    with pytest.raises(ValidationError, match="MISMATCH forced"):
        km_pipeline(canonical_shear(3, 2))


def test_failed_verification_is_cli_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _fail_verification(monkeypatch)
    code, out, err = run(["pipeline", "--k", "3", "--m", "2"], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "verified" not in out
    assert list(tmp_path.iterdir()) == []


def _nested_inverse_document(depth: int) -> str:
    atom = {"block": [[1, 1], [0, 1]], "variant": "uniform", "window": []}
    word = '{"name":"a","op":"named"}'
    for _ in range(depth):
        word = '{"inner":' + word + ',"op":"inverse"}'
    head = json.dumps(
        {"claim": "window-identity", "env": {"a": atom}, "format_version": 1,
         "kind": "certificate", "target_aut": atom, "windows": [2]}
    )
    return head[:-1] + ',"word":' + word + "}\n"


def test_verify_deeply_nested_word_is_error(tmp_path, capsys):
    cert_file = tmp_path / "deep.cert"
    cert_file.write_text(_nested_inverse_document(3000))
    code, out, err = run(["verify", str(cert_file)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "verified" not in out


def test_verify_shallow_nested_word(tmp_path, capsys):
    cert_file = tmp_path / "shallow.cert"
    cert_file.write_text(_nested_inverse_document(8))
    code, out, _ = run(["verify", str(cert_file)], capsys)
    assert code == 0
    assert out.endswith("verified: True\n")


def _nested_conjugates(depth: int):
    """Conj(a, Conj(s, ... Conj(s, a))), conjugates nested depth deep in
    conjugators."""
    word = Named("a")
    for _ in range(depth):
        word = Conj(Named("s"), word)
    return Conj(Named("a"), word)


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 12, 16, 40])
def test_verify_nested_conjugates_in_time(tmp_path, capsys, depth):
    """The walk reads conjugates nested in conjugators in O(depth) products,
    each conjugator one letter; expanded on both sides, they would be
    2^(depth + 1) - 1 letters.  At every depth it gives the value of the tree
    reading (``oracles.tree_rows``), and identity and action claims, true
    and false, report what that value gives, each in under 1 s."""
    env = {"a": uniform(IntMatrix.from_rows([[0, 1], [1, 0]])),
           "s": uniform(IntMatrix.from_rows([[-1, 0], [0, 1]]))}
    word, n, v = _nested_conjugates(depth), 6, (1, 2, 3, 4, 5, 6)
    got = IntMatrix.from_pairs(oracles.tree_rows(word, env, n), n)
    assert IntMatrix.from_pairs(words._Rows(env, n).walk(word), n) == got
    image = got.apply(v)
    wrong = IntMatrix.from_rows([[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(got.data)])
    cases = [
        (dict(kind=WINDOW_IDENTITY, target_matrix=got), "identity holds"),
        (dict(kind=WINDOW_IDENTITY, target_matrix=wrong), f"MISMATCH at {oracles.first_difference(got, wrong)}"),
        (dict(kind=ACTION_ON_VECTOR, vector=v, target_vector=image), "action holds"),
        (dict(kind=ACTION_ON_VECTOR, vector=v, target_vector=(image[0] + 1,) + image[1:]),
         f"MISMATCH at coordinate 0: got {image[0]}, expected {image[0] + 1}"),
    ]
    for fields, line in cases:
        cert = Certificate(windows=(n,), environment=env, word=word, **fields)
        cert_file = tmp_path / "nested.cert"
        cert_file.write_text(serialize_certificate(cert))
        start = time.perf_counter()
        code, out, err = run(["verify", str(cert_file)], capsys)
        assert time.perf_counter() - start < 1
        holds = line.endswith("holds")
        assert (code, out, err) == (0 if holds else 1, f"window {n}: {line}\nverified: {holds}\n", "")


SWAP_ATOM = {"matrix": [[0, 1], [1, 0]], "support": [0, 1], "variant": "finitary"}
SWAP_BLOCK = {"block": [[0, 1], [1, 0]], "variant": "uniform", "window": []}
HEADED_SWAP = {"block": [[0, 1], [1, 0]], "variant": "uniform", "window": [[-1, 0], [0, 1]]}


def _certificate_document(claim, windows, atom, word, **extra) -> str:
    return json.dumps(
        {"claim": claim, "env": {"a": atom}, "format_version": 1, "kind": "certificate",
         "windows": windows, "word": word, **extra}
    )


A = {"name": "a", "op": "named"}
AA = {"factors": [A, A], "op": "product"}

# large windows that need no more than the atoms' own blocks; each used to
# ask for a dense matrix of the window's size
HOSTILE_DOCUMENTS = [
    (
        _certificate_document("order", [200000], SWAP_ATOM, A, order=2),
        0,
        ["window 200000: order is exactly 2", "verified: True"],
    ),
    (
        _certificate_document("order", [200000], SWAP_ATOM, A, order=3),
        1,
        ["window 200000: word^3 is not the identity", "verified: False"],
    ),
    (
        _certificate_document("window-identity", [1000000], SWAP_ATOM, AA,
                              target_aut={"matrix": [], "support": [], "variant": "finitary"}),
        0,
        ["window 1000000: identity holds", "verified: True"],
    ),
    (
        _certificate_document("order", [200000, 400000], SWAP_BLOCK, A, order=4),
        1,
        ["window 200000: order divides 2, not exactly 4",
         "window 400000: order divides 2, not exactly 4", "verified: False"],
    ),
    (
        _certificate_document("order", [200000], HEADED_SWAP, A, order=2),
        0,
        ["window 200000: order is exactly 2", "verified: True"],
    ),
]


@pytest.mark.parametrize(
    "text, code, lines",
    HOSTILE_DOCUMENTS,
    ids=["finitary-order", "finitary-wrong-order", "finitary-identity", "uniform-order-divides",
         "headed-order"],
)
def test_verify_hostile_documents(tmp_path, capsys, text, code, lines):
    cert_file = tmp_path / "hostile.cert"
    cert_file.write_text(text)
    assert run(["verify", str(cert_file)], capsys) == (code, "\n".join(lines) + "\n", "")


def _set(*keys, value):
    """An edit of a chain object that sets the field at ``keys`` to ``value``."""

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value

    return edit


# wrong-typed chain fields, each refused at its path
WRONG_TYPED_CHAINS = [
    ("level-string", _set("level", value="x"), "$.level"),
    ("level-bool", _set("level", value=True), "$.level"),
    ("level-float", _set("level", value=3.0), "$.level"),
    ("step-name-number", _set("steps", 0, "name", value=7), "$.steps[0].name"),
    ("step-note-object", _set("steps", 1, "note", value={}), "$.steps[1].note"),
    ("scope-note-list", _set("scope_note", value=["x"]), "$.scope_note"),
]


@pytest.mark.parametrize(
    "edit, path", [case[1:] for case in WRONG_TYPED_CHAINS], ids=[c[0] for c in WRONG_TYPED_CHAINS]
)
def test_verify_wrong_typed_chain_fields(tmp_path, capsys, edit, path):
    obj = json.loads(serialize_chain(km_pipeline(canonical_shear(1, 3))))
    edit(obj)
    text = json.dumps(obj)
    with pytest.raises(ParseError) as exc:
        parse_chain(text)
    assert exc.value.path == path
    cert_file = tmp_path / "typed.cert"
    cert_file.write_text(text)
    code, out, err = run(["verify", str(cert_file)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ")


def _bezout_edited(*keys, value):
    """The (5,4) chain with the field at ``keys`` of its Bezout step's
    certificate list set to ``value``."""
    obj = json.loads(serialize_chain(km_pipeline(canonical_shear(5, 4))))
    _set(*keys, value=value)(obj["steps"][-1]["certificates"])
    return json.dumps(obj)


def _lam2_renamed():
    obj = json.loads(serialize_chain(km_pipeline(canonical_shear(5, 4))))
    env = obj["steps"][-1]["certificates"][-1]["env"]
    env["lamX"] = env.pop("lam2")
    return json.dumps(obj)


A = Named("a")


def _identity_document(word, env, n):
    return serialize_certificate(Certificate(kind=WINDOW_IDENTITY, windows=(n,), environment=env,
                                             word=word, target_aut=identity_aut()))


# documents whose first error the Bezout step's push through held rows must
# leave as the push of the whole word raises it: a name its word uses that
# the environment lacks; window 36, on which lam2's blocks of 24 alone are
# misaligned; and window 12, on which lam3's blocks of 36 are misaligned too,
# but the whole word's walk meets lam2 first; with the hostile deep-inverse
# document of the benchmark; the (5,4) chain on one line with trailing data,
# refused by json's own error; and words whose free reduction must not hide
# the error the tree reading meets first: a a^-1 with a missing, and with a
# misaligned on window 3, and a conjugator read before the conjugated
ERROR_DOCUMENTS = [
    ("renamed-atom", _lam2_renamed, "error: unresolved name 'lam2'"),
    ("misaligned-atom", lambda: _bezout_edited(-1, "windows", value=[36, 72]),
     "error: window 36 misaligned for window 0 + blocks of 24"),
    ("misaligned-atoms", lambda: _bezout_edited(-1, "windows", value=[12, 72]),
     "error: window 12 misaligned for window 0 + blocks of 24"),
    ("deep-inverse", lambda: _nested_inverse_document(3000),
     "error: $: document nests too deeply to decode"),
    ("trailing-data",
     lambda: serialize_chain(km_pipeline(canonical_shear(5, 4))).replace("\n", " ") + "x",
     "error: $: invalid JSON: Extra data: line 1 column 90142 (char 90141)"),
    ("cancelling-missing", lambda: _identity_document(Product((A, Inverse(A))), {}, 2),
     "error: unresolved name 'a'"),
    ("cancelling-misaligned",
     lambda: _identity_document(Product((A, Inverse(A))), {"a": tau_power(1)}, 3),
     "error: window 3 misaligned for window 0 + blocks of 2"),
    ("conjugator-missing",
     lambda: _identity_document(Product((Conj(Named("x"), Named("b")), Named("x"))), {}, 2),
     "error: unresolved name 'b'"),
]


@pytest.mark.parametrize(
    "make, err", [case[1:] for case in ERROR_DOCUMENTS], ids=[c[0] for c in ERROR_DOCUMENTS]
)
def test_verify_errors_keep_their_text(tmp_path, capsys, make, err):
    cert_file = tmp_path / "error.cert"
    cert_file.write_text(make())
    assert run(["verify", str(cert_file)], capsys) == (1, "", err + "\n")


def _tampered_twin(text):
    """The chain with one claim of its last step changed, as a certificate
    check catches: the first nonzero target coordinate bumped, or the
    upper-right entry of the target block."""
    obj = json.loads(text)
    cert = obj["steps"][-1]["certificates"][0]
    if "target_vector" in cert:
        vec = cert["target_vector"]
        vec[next(i for i, x in enumerate(vec) if x)] += 1
    else:
        cert["target_aut"]["block"][0][-1] += 1
    return json.dumps(obj)


# exit status, length and sha256 of `infrank verify` stdout on each chain of
# test_witness.CHAIN_DIGESTS and on its tampered twin, recorded before chains
# checked their links and read targets and final without an inverse
VERIFY_DIGESTS = [
    (3, 4, (2, 3), (0, 1109, "bfc9031d6c8a4b9504df20873586c3e7fcf171ad3b547f36ab19e765cd3e83b7"),
     (1, 1172, "30bbeff7bd54214ae11b58fa73ba0219d5e7ef026347055eee1262a17068af51")),
    (-3, 4, (2, 3), (0, 1109, "bfc9031d6c8a4b9504df20873586c3e7fcf171ad3b547f36ab19e765cd3e83b7"),
     (1, 1172, "30bbeff7bd54214ae11b58fa73ba0219d5e7ef026347055eee1262a17068af51")),
    (2, 5, (2, 3), (0, 1116, "05b918b35983ee2ee5005c5061723abdbc62ecb63a48aecc5d2e01ad7fc3bcbe"),
     (1, 1179, "f70c77efe692749b1a965963303831ce09b74ae0aaf539d59c7f6f3c7f4bf0fc")),
    (3, 8, (2, 3), (0, 1116, "05b918b35983ee2ee5005c5061723abdbc62ecb63a48aecc5d2e01ad7fc3bcbe"),
     (1, 1179, "f70c77efe692749b1a965963303831ce09b74ae0aaf539d59c7f6f3c7f4bf0fc")),
    (1, 3, (2, 3), (0, 401, "8e2fd3ea87efa32f288d42dbe5bc26552657d678ec9ee6b60323a19f7cf0b6df"),
     (1, 458, "cc8636217ec782a7d55fbacdc060ce17ecf97fbe5eb4c12a11bfa046fa70f2c0")),
    (3, 4, (2, 5), (0, 1114, "a6a3c82bfd48472b3244884991a238767881f027b5e2b3f6d094f56d29fec355"),
     (1, 1177, "effd42b82251ae438cb1df828a944729b17b521b145bb439e629298289b8ef22")),
]


@pytest.mark.parametrize(
    "k, m, pair, genuine, tampered",
    VERIFY_DIGESTS,
    ids=[f"k{k}-m{m}-pair{a},{b}" for k, m, (a, b), _, _ in VERIFY_DIGESTS],
)
def test_verify_output_on_written_chains_is_unchanged(tmp_path, capsys, k, m, pair, genuine,
                                                      tampered):
    import hashlib

    text = serialize_chain(km_pipeline(canonical_shear(k, m), pair))
    cert_file = tmp_path / "chain.cert"
    for doc, want in ((text, genuine), (_tampered_twin(text), tampered)):
        cert_file.write_text(doc)
        code, out, err = run(["verify", str(cert_file)], capsys)
        assert (code, len(out), hashlib.sha256(out.encode()).hexdigest(), err) == (*want, "")


def _singular_row(rows):
    rows[0] = [2 * x for x in rows[0]]


def test_verify_reports_a_singular_target_or_final(tmp_path, capsys):
    """A target or final that is not unimodular is read as a claimed value,
    so ``verify`` reports it (a MISMATCH, or a broken link for the final)
    with ``verified: False`` and exit 1, where reading it used to fail with
    a ``ValidationError``."""
    _, _, cert = zaushko_commutator(IntMatrix.from_rows([[0, 1], [1, 0]]))
    obj = json.loads(serialize_certificate(cert))
    _singular_row(obj["target_aut"]["block"])
    chain = json.loads(serialize_chain(km_pipeline(canonical_shear(1, 3))))
    _singular_row(chain["final"]["block"])
    cases = [
        (obj, "window 8: MISMATCH at entry (0,0): got 1, expected 2"),
        (chain, "broken link: final is not the target of bezout-combination"),
    ]
    for doc, line in cases:
        cert_file = tmp_path / "singular.cert"
        cert_file.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(cert_file)], capsys)
        assert (code, err) == (1, "")
        assert out.endswith(f"{line}\nverified: False\n")


def test_verify_refuses_a_chain_with_another_level(tmp_path, capsys):
    """The (1,3) chain with level 7 used to print ``verified: True``."""
    obj = json.loads(serialize_chain(km_pipeline(tau_power(3))))
    obj["level"] = 7
    cert_file = tmp_path / "level.cert"
    cert_file.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert_file)], capsys)
    assert (code, err) == (1, "")
    assert out.endswith(
        "broken link: level 7 is not the modulus the chain derives (3)\nverified: False\n"
    )


def test_verify_refuses_a_chain_with_a_step_renamed(tmp_path, capsys):
    """The (5,4) chain with its order-2 step named order-1 used to print
    ``verified: True``, the wrong name beside each of its holds lines."""
    cert_file = tmp_path / "c.cert"
    assert main(["pipeline", "--k", "5", "--m", "4", "--out", str(cert_file)]) == 0
    capsys.readouterr()
    text = cert_file.read_text()
    cert_file.write_text(text.replace("order-2-shear-conjugation", "order-1-shear-conjugation"))
    code, out, err = run(["verify", str(cert_file)], capsys)
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("broken link:")] == [
        "broken link: the steps are not named euler-gcd-reduction, order-2-shear-conjugation, "
        "order-3-shear-conjugation, bezout-combination"
    ]
    assert out.endswith("verified: False\n")


def _uniform_shear_document(c):
    return (
        '{"block":[[1,%d],[0,1]],"format_version":1,"kind":"aut","variant":"uniform",'
        '"window":[]}' % c
    )


def test_classify_with_a_semiprime_congruence_gcd_is_quick(tmp_path):
    """The congruence gcd (10^9 + 7)(10^9 + 9) is split by rho, not by trial
    division up to 10^9 + 7."""
    aut_file = tmp_path / "u.aut"
    aut_file.write_text(_uniform_shear_document(1000000016000000063))
    proc = run_child(["-m", "infrank", "classify", str(aut_file)], timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "prime set: {1000000007, 1000000009}\n" in proc.stdout


def test_classify_factorizes_a_repeated_prefix_multiplier_once(tmp_path):
    """A prefix repeating (10^9 + 7)(10^9 + 9) 40 times costs one rho split,
    not one per copy."""
    s = 1000000016000000063
    aut_file = tmp_path / "g.aut"
    aut_file.write_text(serialize_aut(graded((s,) * 40, ())))
    proc = run_child(["-m", "infrank", "classify", str(aut_file)], timeout=5)
    prefix = ", ".join([str(s)] * 40)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"congruence gcd: {s}\n"
        f"level set: rule-based: prefix [{prefix}], tail primes outside []\n"
        "prime set: [1000000007, 1000000009] together with all primes outside []\n"
        "almost-radiation: False\n"
        "normal generator: False\n"
        f"  evidence: member at level {s}\n"
        "ladder rung: no maximal level; ladder rung undefined\n"
    )


def test_verify_refuses_a_document_without_a_certificate(tmp_path, capsys):
    aut_file = tmp_path / "tau.aut"
    aut_file.write_text(serialize_aut(tau_power(1)))
    assert run(["verify", str(aut_file)], capsys) == (
        1, "", "document contains no certificate to verify\n"
    )


def test_classify_refuses_a_semiprime_past_the_rho_budget(tmp_path):
    n = 100000000000000000039 * 100000000000000000129
    aut_file = tmp_path / "u.aut"
    aut_file.write_text(_uniform_shear_document(n))
    proc = run_child(["-m", "infrank", "classify", str(aut_file)], timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {n} does not split within 262144 rho iterations\n"


# runs ``infrank`` with the arguments given, in an address space of 1 GiB
LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from infrank.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_long_graded_windows_stay_cheap(tmp_path):
    """A graded identity claim on windows (4000, 8000) and a printed graded
    window of 2000 fit in 1 GiB and a minute: a dense 8000 x 8000 window
    would need about 0.5 GB of pointers alone."""
    g = graded((2, 3), (11,))
    aut_file, cert_file = tmp_path / "g.aut", tmp_path / "long.cert"
    aut_file.write_text(serialize_aut(g))
    word = Product((Named("g"), Inverse(Named("g"))))
    cert_file.write_text(serialize_certificate(Certificate(
        kind=WINDOW_IDENTITY, windows=(4000, 8000), environment={"g": g}, word=word,
        target_aut=identity_aut(),
    )))
    proc = run_child(["-c", LIMITED_MAIN, "verify", str(cert_file)], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "window 4000: identity holds\nwindow 8000: identity holds\nverified: True\n"
    )
    argv = ["-c", LIMITED_MAIN, "classify", str(aut_file), "--window", "2000"]
    proc = run_child(argv, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[-2001] == "2000 2000"
    assert lines[-1].split()[-2:] == [str(g.increment(999)), "1"]
