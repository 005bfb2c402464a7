"""Edge cases: degenerate shapes, huge entries, negated graded blocks."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import infrank

from infrank.autrep import (
    compose,
    eventually_uniform,
    graded,
    invert,
    is_identity,
    uniform,
    window_matrix,
)
from infrank.classify import (
    congruence_gcd,
    is_almost_radiation,
    is_normal_generator,
    lambda_levels,
    lambda_member,
    nu_set,
)
from infrank.cli import main
from infrank.intmat import IntMatrix, snf
from infrank.serialize import parse_chain
from infrank.witness import km_pipeline, tau_power, verify_chain


def test_snf_single_row_and_column():
    res = snf(IntMatrix.from_rows([[6, 10, 15]]))
    assert res.diagonal() == (1,)
    assert res.u * IntMatrix.from_rows([[6, 10, 15]]) * res.v == res.d
    res = snf(IntMatrix.from_rows([[4], [6]]))
    assert res.diagonal() == (2,)


def test_snf_huge_entries():
    rng = random.Random(60)
    big = 10**30
    m = IntMatrix.from_rows(
        [[rng.randint(-big, big) for _ in range(3)] for _ in range(3)]
    )
    res = snf(m)
    assert res.u * m * res.v == res.d
    diag = res.diagonal()
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0


def test_huge_shear_power():
    m = IntMatrix.from_rows([[1, 1], [0, 1]]).power(10**18)
    assert m == IntMatrix.from_rows([[1, 10**18], [0, 1]])


def test_negated_graded_classification():
    g = graded((2, 3), (), negated=True)
    assert congruence_gcd(g) == 2
    assert lambda_levels(g) == lambda_levels(invert(g))
    assert lambda_member(g, 6) and not lambda_member(g, 4)
    assert not is_almost_radiation(g)
    ok, ev = is_normal_generator(g)
    assert not ok and ev.level == 2
    assert nu_set(g) == nu_set(invert(g))


def test_graded_window_negation():
    g = graded((2,), (), negated=True)
    w = window_matrix(g, 4)
    assert w.col(0) == (1, -2, 0, 0)


def test_compose_graded_with_uniform_identity():
    g = graded((2,), (5,))
    eye = uniform(IntMatrix.identity(2))
    assert compose(g, eye) == g
    assert compose(eye, g) == g


def test_eventually_uniform_d1():
    aut = eventually_uniform(IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[1]]))
    assert window_matrix(aut, 3) == IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_almost_radiation(aut)
    assert is_identity(compose(aut, invert(aut)))


def test_canonical_window_trim():
    b = IntMatrix.from_rows([[1, 2], [0, 1]])
    padded = IntMatrix.block_diag([b, b, b])
    aut = eventually_uniform(padded, b)
    assert aut.window_size == 0
    assert aut.block.matrix == b


def test_pipeline_alternative_coprime_pair():
    chain = km_pipeline(tau_power(2), coprime=(3, 5))
    assert verify_chain(chain).ok
    names = [s.name for s in chain.steps]
    assert "order-3-shear-conjugation" in names
    assert "order-5-shear-conjugation" in names


def test_pipeline_general_coprime_2_5():
    from infrank.witness import canonical_shear

    chain = km_pipeline(canonical_shear(3, 2), coprime=(2, 5))
    assert chain.level == 2
    assert verify_chain(chain).ok


def test_cli_pipeline_coprime_flag(tmp_path, capsys):
    out = tmp_path / "c.cert"
    code = main(["pipeline", "--k", "1", "--m", "2", "--coprime", "3,5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    chain = parse_chain(out.read_text())
    assert verify_chain(chain).ok


def test_cli_classify_window_flag(tmp_path, capsys):
    from infrank.serialize import serialize_aut

    f = tmp_path / "t.aut"
    f.write_text(serialize_aut(tau_power(2)))
    code = main(["classify", str(f), "--window", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 4" in out  # matrix text header


def test_cli_bad_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code = main(["zaushko", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_cli_missing_file(capsys):
    code = main(["classify", "/nonexistent/path.aut"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_wans_odd_dimension(tmp_path, capsys):
    from test_serialize import matrix_text

    f = tmp_path / "f.txt"
    f.write_text(matrix_text(IntMatrix.identity(3)))
    code = main(["wans", str(f)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_identity_chain_level_zero_shear_rejected():
    with pytest.raises(Exception):
        km_pipeline(tau_power(0))


def test_pipeline_negative_k():
    from infrank.witness import canonical_shear, shear_shape

    phi = canonical_shear(-1, 2)
    assert shear_shape(phi) == (-1, 2)
    chain = km_pipeline(phi)
    assert chain.level == 2
    assert verify_chain(chain).ok



def test_reimports_keep_one_copy_of_the_program_alive():
    """Dropping every ``infrank`` module and importing the CLI again, five
    times, leaves one ``Finitary`` class alive: no cache outside the program
    (``typing``'s, for a ``Union`` alias) keeps an earlier import's classes."""
    script = (
        "import gc, importlib, sys\n"
        "for _ in range(5):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'infrank']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('infrank.cli')\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__name__ == 'Finitary' for o in gc.get_objects()))\n"
    )
    src = str(Path(infrank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
