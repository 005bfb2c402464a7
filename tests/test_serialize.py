import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infrank import intmat, serialize
from infrank.autrep import (
    compose,
    eventually_uniform,
    finitary,
    graded,
    invert,
    is_claimed,
    uniform,
    window_pairs,
    witnessed,
)
from infrank.classify import FinitePrimes, UnionWithPrefix
from infrank.cli import main
from infrank.errors import (
    CompositionUnsupportedError,
    DimensionError,
    InfrankError,
    ParseError,
    ValidationError,
)
from infrank.intmat import IntMatrix
from infrank.serialize import (
    MAX_WORD_DEPTH,
    format_matrix_text,
    parse_aut,
    parse_certificate,
    parse_chain,
    parse_descriptors,
    parse_document,
    parse_matrix_text,
    parse_word,
    serialize_aut,
    serialize_certificate,
    serialize_chain,
    serialize_word,
    word_from_obj,
    word_to_obj,
)
from infrank.witness import (
    ChainStep,
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
from infrank.words import (
    ACTION_ON_VECTOR,
    ORDER,
    WINDOW_IDENTITY,
    WINDOW_SUM,
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    verify_certificate,
)

import oracles
from oracles import is_int_list
from helpers import (
    ModCounter,
    kernel_rows,
    matrix_text,
    one_atom_per_class,
    random_unimodular,
    run,
    unimodular,
    words,
)


def test_matrix_text_round_trip():
    m = IntMatrix.from_rows([[1, -2, 30], [4, 5, -6]])
    assert parse_matrix_text(matrix_text(m)) == m


@settings(max_examples=300)
@given(st.integers(0, 9), st.integers(0, 9), st.data())
def test_matrix_text_matches_the_entry_walk(r, c, data):
    """Rows cut from one string of zeros read as the entry-by-entry text,
    on sparse, dense, +-1-heavy and 400-bit matrices, n x 0 included."""
    m = IntMatrix.from_rows(data.draw(kernel_rows(r, c)) if r else [])
    text = matrix_text(m)
    assert text == oracles.format_matrix_text(m)
    assert parse_matrix_text(text) == m


@pytest.mark.parametrize("rows", [[], [[]], [[], [], []], [[0]], [[7]], [[-1]], [[0, 0, 5]], [[5, 0, 0]]])
def test_matrix_text_edge_shapes(rows):
    m = IntMatrix.from_rows(rows)
    assert matrix_text(m) == oracles.format_matrix_text(m)
    assert parse_matrix_text(matrix_text(m)) == m


@settings(max_examples=150)
@given(one_atom_per_class(), st.sampled_from(["f", "u", "g"]), st.sampled_from([0, 8, 12, 24]))
def test_window_text_from_rows_matches_the_dense_text(env, name, n):
    """A window written from its row pairs reads as the entry-by-entry text
    of the dense window, window 0 included where the atom allows it."""
    aut = env[name]
    try:
        want = oracles.format_matrix_text(oracles.dense_window(aut, n))
    except InfrankError as exc:
        with pytest.raises(type(exc)):
            window_pairs(aut, n)
        return
    assert format_matrix_text(window_pairs(aut, n), n) == want


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_matrix_text_of_empty_rows_matches_the_dense_text(rows):
    m = IntMatrix.from_rows([[]] * rows)
    assert format_matrix_text(((),) * rows, 0) == oracles.format_matrix_text(m)


def test_matrix_text_past_4300_digits_raises_as_before():
    """The first entry past Python's 4,300-digit text limit raises the same
    ValueError from both formatters."""
    m = IntMatrix.from_rows([[0, 1, 0], [0, 0, -(10**4400)], [10**5000, 0, 0]])
    with pytest.raises(ValueError) as new:
        matrix_text(m)
    with pytest.raises(ValueError) as old:
        oracles.format_matrix_text(m)
    assert str(new.value) == str(old.value)


def test_matrix_text_errors():
    with pytest.raises(ParseError):
        parse_matrix_text("")
    with pytest.raises(ParseError):
        parse_matrix_text("2 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_matrix_text("1 2\n1 x\n")
    with pytest.raises(ParseError):
        parse_matrix_text("1 1\n1.5\n")
    with pytest.raises(ParseError):
        parse_matrix_text("2 2\n1 2\n3\n")


def test_aut_round_trip_tau():
    tau = tau_power(1)
    text = serialize_aut(tau)
    assert '"variant":"uniform"' in text
    assert '"block":[[1,1],[0,1]]' in text
    assert parse_aut(text) == tau


def test_aut_round_trip_graded():
    g = graded((2, 3), (7,))
    assert parse_aut(serialize_aut(g)) == g
    gi = graded((2, 3), (7,), negated=True)
    assert parse_aut(serialize_aut(gi)) == gi


def test_parse_rejects_non_unimodular():
    doc = (
        '{"format_version":1,"kind":"aut","variant":"uniform",'
        '"window":[],"block":[[2,0],[0,1]]}'
    )
    with pytest.raises(ValidationError):
        parse_aut(doc)


UNIFORM_DOC = '{"format_version":1,"kind":"aut","variant":"uniform","window":[],"block":%s}'
FINITARY_DOC = '{"format_version":1,"kind":"aut","variant":"finitary","support":[7,3],"matrix":%s}'


@pytest.mark.parametrize(
    "doc, error",
    [(UNIFORM_DOC % "[[1.5,0],[0,1]]", ParseError), (UNIFORM_DOC % "[[true,0],[0,1]]", ParseError),
     (UNIFORM_DOC % "[[1,0],[0]]", DimensionError),
     # an unsorted support is checked against the matrix size before it is sorted
     (FINITARY_DOC % "[[0]]", ValidationError),
     (FINITARY_DOC % "[[1,0,0],[0,1,0],[0,0,1]]", ValidationError)],
    ids=["float", "bool", "ragged", "unsorted-support-short-matrix",
         "unsorted-support-long-matrix"],
)
def test_parse_refuses_non_integer_blocks(tmp_path, capsys, doc, error):
    with pytest.raises(error) as exc:
        parse_aut(doc)
    path = tmp_path / "bad.aut"
    path.write_text(doc)
    assert main(["classify", str(path)]) == 1
    assert tuple(capsys.readouterr()) == ("", f"error: {exc.value}\n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_aut('{"format_version":1,"kind":"aut","variant":"finitary","support":[0]}')
    assert "matrix" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_aut('{"format_version":1,"kind":"aut","variant":"nope"}')
    assert "$.variant" in str(err.value)
    with pytest.raises(ParseError):
        parse_aut("not json")
    with pytest.raises(ParseError):
        parse_aut('{"format_version":9,"kind":"aut"}')


def test_word_round_trip():
    word = Product(
        (
            Conj(Named("a"), Power(Named("b"), -2)),
            Inverse(Named("a")),
        )
    )
    env = {"a": tau_power(2), "b": finitary((1,), IntMatrix.from_rows([[-1]]))}
    text = serialize_word(word, env)
    word2, env2 = parse_word(text)
    assert word2 == word
    assert env2 == env
    assert serialize_word(word2, env2) == text


def test_certificate_round_trip_and_tamper():
    import json

    _, _, cert = zaushko_commutator(IntMatrix.from_rows([[0, 1], [1, 0]]))
    text = serialize_certificate(cert)
    cert2 = parse_certificate(text)
    assert cert2 == cert
    assert verify_certificate(cert2).ok
    # tamper with one entry of the target block (keep it unimodular)
    doc = json.loads(text)
    doc["target_aut"]["block"][0][1] += 1
    parsed = parse_certificate(json.dumps(doc))
    res = verify_certificate(parsed)
    assert not res.ok
    assert any("MISMATCH" in line for line in res.report)


def test_window_sum_certificate_round_trip(tmp_path):
    from infrank.witness import wans_sum_certificate, wans_three
    from infrank.cli import main

    f = IntMatrix.from_rows([[3, -2], [1, 4]])
    cert = wans_sum_certificate(f, wans_three(f))
    text = serialize_certificate(cert)
    cert2 = parse_certificate(text)
    assert cert2 == cert
    assert verify_certificate(cert2).ok
    cert_file = tmp_path / "sum.cert"
    cert_file.write_text(text)
    assert main(["verify", str(cert_file)]) == 0


def test_chain_round_trip():
    chain = km_pipeline(tau_power(3))
    text = serialize_chain(chain)
    chain2 = parse_chain(text)
    assert chain2 == chain
    assert serialize_chain(chain2) == text
    assert verify_chain(chain2).ok


def test_parse_chain_needs_no_snf_or_det(monkeypatch):
    """Parsed atoms get their inverses from the 2-adic elimination alone."""
    text = serialize_chain(km_pipeline(canonical_shear(5, 4), (2, 3)))
    calls = {"snf": 0, "det": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(intmat, "snf", counted("snf", intmat.snf))
    monkeypatch.setattr(IntMatrix, "det", counted("det", IntMatrix.det))
    chain = parse_chain(text)
    assert calls == {"snf": 0, "det": 0}
    assert serialize_chain(chain) == text
    assert verify_chain(chain).ok


def _atom_objs(obj, claimed=False):
    """Every atom object in a document, env entries, targets and final, with
    whether it is a claimed value (a target or final)."""
    if isinstance(obj, dict):
        if "variant" in obj:
            yield obj, claimed
        else:
            for key, value in obj.items():
                yield from _atom_objs(value, claimed or key in ("target_aut", "final"))
    elif isinstance(obj, list):
        for value in obj:
            yield from _atom_objs(value, claimed)


def _parsed_atoms(chain):
    certs = [c for step in chain.steps for c in step.certificates]
    return [a for c in certs for a in (*c.environment.values(), c.target_aut) if a is not None] + [
        chain.final
    ]


def test_parse_builds_each_distinct_atom_once(monkeypatch):
    """The (5,4) chain repeats its atoms across certificates; one parse calls
    an atom constructor once per distinct env atom, and once with
    ``claimed=True`` per distinct target or final (none equals an env atom),
    every copy of an atom is one object, and the chain re-serializes to the
    same bytes."""
    text = serialize_chain(km_pipeline(canonical_shear(5, 4), (2, 3)))
    atoms = list(_atom_objs(json.loads(text)))
    distinct = {(json.dumps(a, sort_keys=True), claimed) for a, claimed in atoms}
    assert len({a for a, _ in distinct}) == len(distinct)
    built = []
    for name in ("finitary", "eventually_uniform", "graded"):
        make = getattr(serialize, name)
        monkeypatch.setattr(
            serialize,
            name,
            lambda *args, make=make, **kw: built.append(kw.get("claimed", False))
            or make(*args, **kw),
        )
    chain = parse_chain(text)
    assert sorted(built) == sorted(claimed for _, claimed in distinct)
    assert len(built) < len(atoms)
    assert len({id(a) for a in _parsed_atoms(chain)}) == len(distinct)
    assert serialize_chain(chain) == text
    assert verify_chain(chain).ok


def test_chain_encoding_splices_each_environment_exactly():
    """Certificates over different environments, over one environment dict,
    over equal atoms that are distinct objects and over none: the chain's
    text is the one-pass encoding, in which every certificate restates its own."""
    x, y = tau_power(2), tau_power(3)
    envs = ({"a": x}, {"a": y}, {"a": x, "b": y}, {"a": tau_power(2)}, {})
    certs = tuple(
        Certificate(kind=WINDOW_IDENTITY, windows=(2,), environment=env, word=Named("a"),
                    target_aut=x)
        for env in envs
    )
    summed = Certificate(kind=WINDOW_SUM, windows=(2,), environment=envs[2],
                         summand_words=(Named("a"), Named("b")), target_matrix=IntMatrix.identity(2))
    steps = (ChainStep("s", Named("a"), certs, note="n"), ChainStep("t", Named("b"), (summed, *certs)))
    chain = WitnessChain(steps, y, 3, "scope")
    text = serialize_chain(chain)
    assert text == oracles.chain_document(chain)
    assert serialize_chain(parse_chain(text)) == text


# -- copies: one read per run of copies of an environment or a word -----------


_CHAIN_54 = serialize_chain(km_pipeline(canonical_shear(5, 4), (2, 3)))


def _graded_chain() -> str:
    """Two order claims over one graded atom: the text holds ``false``."""
    g, word = graded((2, 3), ()), Product((Named("g"), Inverse(Named("g"))))
    certs = tuple(Certificate(kind=ORDER, windows=(n,), environment={"g": g}, word=word, order=1)
                  for n in (2, 4))
    return serialize_chain(WitnessChain((ChainStep("s", word, certs),), g, 2, ""))


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _set_lam2_entry(value):
    def edit(doc):
        doc["steps"][-1]["certificates"][-1]["env"]["lam2"]["block"][0][0] = value
    return edit


def _set_exponent(value):
    def edit(doc):
        word = doc["steps"][-1]["certificates"][-1]["word"]
        word["factors"][0]["inner"]["factors"][0]["h"]["exponent"] = value
    return edit


def _set_negated(doc):
    doc["steps"][0]["certificates"][1]["env"]["g"]["negated"] = 0


# A later copy equal to the first by ``==`` but not in type, and the error its
# parse raises, recorded before a parse read each run of copies once.
_ENTRY_PATH = "$.steps[3].certificates[1].env.lam2.block[0]"
_EXPONENT_PATH = "$.steps[3].certificates[1].word.factors[0].inner.factors[0].h.exponent"
COPY_ERRORS = [
    (_CHAIN_54, _set_lam2_entry(1.0), _ENTRY_PATH, "expected a list of integers"),
    (_CHAIN_54, _set_lam2_entry(True), _ENTRY_PATH, "expected a list of integers"),
    (_CHAIN_54, _set_exponent(True), _EXPONENT_PATH, "expected an integer"),
    (_CHAIN_54, _set_exponent(1.0), _EXPONENT_PATH, "expected an integer"),
    (_graded_chain(), _set_negated, "$.steps[0].certificates[1].env.g.negated", "expected a boolean"),
]


@pytest.mark.parametrize(
    "text, edit, path, message",
    COPY_ERRORS,
    ids=["env-float", "env-true", "word-true", "word-float", "graded-zero"],
)
def test_a_copy_equal_only_by_eq_is_read_on_its_own(text, edit, path, message):
    assert parse_chain(_edited(text, lambda doc: None)) == parse_chain(text)
    with pytest.raises(ParseError) as exc:
        parse_chain(_edited(text, edit))
    assert (exc.value.path, exc.value.message) == (path, message)


@pytest.mark.parametrize(
    "text, error",
    [('\ufeff{"format_version":1}',
      "$: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
     ('{"format_version":1.5}', "$.format_version: unsupported version 1.5"),
     ('{"format_version":1,"kind":"aut","variant":1.5}', "$.variant: unknown variant 1.5"),
     ('{"format_version":1,"kind":"chain","level":1,"steps":[1e400]}',
      "$.steps[0]: expected an object, found float")],
    ids=["bom", "version", "variant", "step"],
)
def test_the_decoder_keeps_every_error_text(text, error):
    """Texts recorded when ``json.loads`` decoded every document."""
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == error


def test_the_decoder_reads_what_json_loads_read():
    """Version 1.0, read as 1, and a document given as bytes."""
    text = '{"format_version":1.0,"kind":"aut","variant":"graded","prefix":[],"excluded":[],"negated":false}'
    assert parse_document(text) == graded((), ()) == parse_aut(serialize_aut(graded((), ())).encode())


def _forms(text: str) -> dict[str, str]:
    """A chain's text as written, re-dumped by ``json.dumps`` with its
    default spacing, and re-dumped with ``indent=1``."""
    doc = json.loads(text)
    return {"compact": text, "spaced": json.dumps(doc), "indent": json.dumps(doc, indent=1)}


def test_one_parse_reads_the_54_chains_environment_once(monkeypatch):
    """The (5,4) chain restates one environment of 5 atoms in 12
    certificates: one parse of it, compact or spaced, reads it once, every
    certificate holds the one mapping, and ``aut_from_obj`` runs once per
    distinct atom or claimed value (64 times when every copy was read).
    Each of the 6 distinct top-level words of its 16 is read once, except
    with ``indent=1``, where a step's word and a certificate's word stand at
    two depths and so are two texts."""
    doc = json.loads(_CHAIN_54)
    atoms = list(_atom_objs(doc))
    assert len(atoms) == 64
    distinct = {(json.dumps(a, sort_keys=True), claimed) for a, claimed in atoms}
    words = [c["word"] for step in doc["steps"] for c in (*step["certificates"], step)]
    assert len(words) == 16
    paths, word_paths = [], []
    read, read_word = serialize.aut_from_obj, serialize.word_from_obj
    monkeypatch.setattr(serialize, "aut_from_obj",
                        lambda obj, path, *args: paths.append(path) or read(obj, path, *args))
    monkeypatch.setattr(
        serialize, "word_from_obj",
        lambda obj, path="$", depth=1, table=None:
            (depth == 1 and word_paths.append(path)) or read_word(obj, path, depth, table))
    for form, text in _forms(_CHAIN_54).items():
        paths.clear()
        word_paths.clear()
        chain = parse_chain(text)
        certs = [c for step in chain.steps for c in step.certificates]
        assert len(certs) == 12 and len({id(c.environment) for c in certs}) == 1, form
        assert len(paths) == len(distinct) == 9, form
        if form != "indent":
            assert len(word_paths) == len({json.dumps(w, sort_keys=True) for w in words}) == 6, form
        assert [p for p in paths if ".env." in p] == [
            f"$.steps[0].certificates[0].env.{name}" for name in ("h1", "h2", "lam2", "lam3", "phi")]
        assert serialize_chain(chain) == _CHAIN_54


def test_one_parse_decodes_the_54_chains_environment_text_once(monkeypatch):
    """The scanner runs on the text of the (5,4) chain's environment once,
    whether the chain is written compact or spaced, and on each of its 6
    distinct top-level word texts once, except with ``indent=1``, which
    gives a step's word and a certificate's word two texts."""
    doc = json.loads(_CHAIN_54)
    env = doc["steps"][0]["certificates"][0]["env"]
    words = {serialize._encode(c["word"]) for step in doc["steps"] for c in (*step["certificates"], step)}
    scanned, scan = [], serialize._scan

    def recording(text, at):
        value, end = scan(text, at)
        scanned.append(value)
        return value, end

    monkeypatch.setattr(serialize, "_scan", recording)
    for form, text in _forms(_CHAIN_54).items():
        scanned.clear()
        assert parse_chain(text) == oracles.read_chain(text)
        assert scanned.count(env) == 1, form
        if form != "indent":
            assert [scanned.count(json.loads(w)) for w in words] == [1] * 6, form


def test_an_indented_parse_scans_each_distinct_copy_text_once(monkeypatch):
    """With ``indent=1`` the (5,4) chain's copies have more distinct texts
    than a walk keeps of one prefix (a step's word and a certificate's word
    stand at two depths): one parse scans each of them once."""
    text = json.dumps(json.loads(_CHAIN_54), indent=1)
    decoder = json.JSONDecoder()
    copies = []
    for key in ('"env": ', '"word": '):
        at = text.find(key)
        while at >= 0:
            start = at + len(key)
            copies.append(text[start : decoder.raw_decode(text, start)[1]])
            at = text.find(key, start)
    assert len(copies) == 12 + 16 and len(set(copies)) > serialize._COPIES_KEPT
    scanned, scan = [], serialize._scan

    def recording(text, at):
        value, end = scan(text, at)
        scanned.append(text[at:end])
        return value, end

    monkeypatch.setattr(serialize, "_scan", recording)
    assert parse_chain(text) == oracles.read_chain(text)
    assert [scanned.count(copy) for copy in set(copies)] == [1] * len(set(copies))


def test_a_parse_lifts_only_the_blocks_above_4x4(monkeypatch):
    """Each atom is parsed with its exact inverse, by the adjugate up to
    4 x 4 and by a 2-adic lift above: the ``infrank factor`` certificate of
    [[2, 1], [0, 1]], which inverts seven 4 x 4 blocks, makes no lift, and
    the (5,4) chain lifts its four blocks above 4 x 4, h1, h2, lam2 and
    lam3, once each."""
    cert = serialize_certificate(factor_block_unitriangular(2, IntMatrix.from_rows([[2, 1], [0, 1]]))[1])
    calls, inverse = [], intmat._unimodular_inverse
    monkeypatch.setattr(intmat, "_unimodular_inverse", lambda m: calls.append(m.rows) or inverse(m))
    mods = ModCounter(monkeypatch)
    parse_certificate(cert)
    assert sorted(calls) == [0] + [4] * 7
    assert mods.ks == []
    env = parse_chain(_CHAIN_54).steps[0].certificates[0].environment
    assert sorted(env) == ["h1", "h2", "lam2", "lam3", "phi"] and env["phi"].d == 2
    assert sorted(mods.dims) == sorted(env[name].d for name in ("h1", "h2", "lam2", "lam3")) == [6, 6, 24, 36]


def test_the_clean_chain_holds_one_environment_mapping():
    """The clean (1,5) chain, 2 KB as written, restates one environment in
    every certificate: one parse holds one mapping for all of them."""
    text = serialize_chain(km_pipeline(tau_power(5)))
    assert len(text) < 4096 and len({text[a:b] for a, b in _copy_spans(text)}) == 1
    certs = [c for step in parse_chain(text).steps for c in step.certificates]
    assert len(certs) > 1 and len({id(c.environment) for c in certs}) == 1


_LONG = "7" * 5000
# an integer literal past int's 4,300-digit limit, and the error it gives
_LONG_ERROR = "$: invalid JSON: an integer has more than 4300 digits"


def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    """In a ``.aut``, read by the library and by the CLI, and in one
    environment copy of a chain, walked for its copies or not."""
    aut = serialize_aut(tau_power(2)).replace("[[1,", f"[[{_LONG},", 1)
    assert _LONG in aut
    with pytest.raises(ParseError) as exc:
        parse_aut(aut)
    assert str(exc.value) == _LONG_ERROR
    path = tmp_path / "long.aut"
    path.write_text(aut)
    assert run(["classify", str(path)], capsys) == (1, "", f"error: {_LONG_ERROR}\n")
    chain = _edited(_CHAIN_54, _set_lam2_entry(987654321987)).replace("987654321987", _LONG)
    assert chain.count(_LONG) == 1
    with pytest.MonkeyPatch.context() as patch:
        for decode in (serialize._decode_copies, lambda text: None):  # walked, then not
            patch.setattr(serialize, "_decode_copies", decode)
            with pytest.raises(ParseError) as exc:
                parse_chain(chain)
            assert str(exc.value) == _LONG_ERROR


@st.composite
def copied_chains(draw):
    """Chains of small certificates that restate one or two environments and
    words, as a pipeline's chain restates its own."""
    envs = draw(st.lists(ENVS, min_size=1, max_size=2))
    pool = draw(st.lists(WORDS_ABC, min_size=1, max_size=2))

    def cert():
        return Certificate(kind=WINDOW_IDENTITY, windows=(2,), environment=draw(st.sampled_from(envs)),
                           word=draw(st.sampled_from(pool)))

    steps = tuple(
        ChainStep(f"s{i}", draw(st.sampled_from(pool)), tuple(cert() for _ in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(1, 2)))
    )
    return WitnessChain(steps, draw(auts()), 1, "")


def _leaves(obj):
    """Each (container, key) of an int or bool below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if isinstance(value, int):
            yield obj, key
        yield from _leaves(value)


def _dicts(obj):
    """Every object at or below ``obj``."""
    if isinstance(obj, dict):
        yield obj
    for value in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
        yield from _dicts(value)


def _edit_copy(parent: dict, key: str, at: int, edit: str) -> None:
    """Change one environment or word copy: an entry +-1, an int or bool of
    another type that ``==`` takes for it, or an atom renamed."""
    copy = parent[key]
    if edit == "rename":
        if key == "env" and copy:
            old, new = sorted(copy)[at % len(copy)], "abc"[at % 3]
            copy[new if new != old else old + "x"] = copy.pop(old)
        named = [node for node in _dicts(copy) if node.get("op") == "named"]
        if key == "word" and named:
            named[at % len(named)]["name"] = "abc"[at % 3] + "x" * (at % 2)
    else:
        leaves = [(c, k) for c, k in _leaves(copy) if edit == "retype" or type(c[k]) is int]
        if leaves:
            c, k = leaves[at % len(leaves)]
            v = c[k]
            if edit == "retype":
                c[k] = int(v) if type(v) is bool else bool(v) if v in (0, 1) and at % 2 else float(v)
            else:
                c[k] = v + (1 if edit == "+1" else -1)


@settings(max_examples=300)
@given(copied_chains(), st.integers(0, 99), st.integers(0, 999),
       st.sampled_from(["+1", "-1", "retype", "rename"]))
def test_a_changed_copy_reads_as_when_every_copy_was_read(chain, which, at, edit):
    """One copy of an environment or a word changed: ``parse_chain`` gives
    what the reader of every copy gives, the same chain or the same error."""
    doc = json.loads(serialize_chain(chain))
    copies = [(c, key) for step in doc["steps"] for c in step["certificates"] for key in ("env", "word")]
    copies += [(step, "word") for step in doc["steps"]]
    _edit_copy(*copies[which % len(copies)], at, edit)
    text = json.dumps(doc)
    try:
        want = oracles.read_chain(text)
    except InfrankError as exc:
        with pytest.raises(type(exc)) as got:
            parse_chain(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_chain(text)
        assert got == want
        assert serialize_chain(got) == serialize_chain(want)


def _copy_spans(text: str) -> list[tuple[int, int]]:
    """Where each environment copy of a written chain stands in its text."""
    spans = []
    at = text.find(',"env":')
    while at >= 0:
        start = at + len(',"env":')
        spans.append((start, json.JSONDecoder().raw_decode(text, start)[1]))
        at = text.find(',"env":', start)
    return spans


def _mutate(text: str, edit: str, which: int, at: int, char: str) -> str:
    """``text`` with one edit: a byte of one environment copy (or of the
    whole text) changed, a closing bracket of the other kind, whitespace
    added, a key written with a ``\\u`` escape, the keys of one copy
    reordered, an integer of one copy written ``1.0``, a second ``env`` key
    in one certificate, the text cut short, or trailing data."""
    spans = _copy_spans(text)
    start, end = spans[which % len(spans)]
    copy = text[start:end]
    if edit == "flip":  # a digit of the copy, any byte of it, or any byte of the text
        digits = [i for i in range(start, end) if text[i].isdigit()]
        places = [p for p in (digits, range(start, end), range(len(text))) if p]
        place = places[at % len(places)]
        i = place[at % len(place)]
        return text[:i] + char + text[i + 1 :]
    if edit == "bracket":  # a closing bracket of the other kind
        closers = [i for i, c in enumerate(text) if c in "]}"]
        i = closers[at % len(closers)]
        return text[:i] + ("}" if text[i] == "]" else "]") + text[i + 1 :]
    if edit == "whitespace":
        i = at % (len(text) + 1)
        return text[:i] + " \n\t\r"[at % 4] + text[i:]
    if edit == "escape":
        keys = [m for m in range(len(text) - 2) if text[m] in "{," and text[m + 1] == '"']
        k = keys[at % len(keys)] + 2
        return text[:k] + f"\\u{ord(text[k]):04x}" + text[k + 1 :]
    if edit == "reorder":
        copy = json.dumps(dict(reversed(json.loads(copy).items())), separators=(",", ":"))
    elif edit == "float":
        ones = [m for m in range(len(copy) - 2) if copy[m] in "[," and copy[m + 1 : m + 3] in ("1,", "1]")]
        if ones:
            m = ones[at % len(ones)] + 1
            copy = copy[:m] + "1.0" + copy[m + 1 :]
    elif edit == "duplicate":
        copy += ',"env":' + (text[slice(*spans[at % len(spans)])] if at % 3 else "{}")
    elif edit == "truncate":
        return text[: at % len(text)]
    elif edit == "trailing":
        return text + ["x", " ", "\n\n", "{}", "0"][at % 5]
    return text[:start] + copy + text[end:]


def _outcome(text: str):
    try:
        return parse_chain(text)
    except InfrankError as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(copied_chains(), st.sampled_from(["flip", "bracket", "whitespace", "escape", "reorder", "float",
                                         "duplicate", "truncate", "trailing"]),
       st.integers(0, 99), st.integers(0, 9999), st.sampled_from('0123456789-x",:[]{} e.'))
def test_a_mutated_chain_text_decodes_as_json_loads_reads_it(chain, edit, which, at, char):
    """Any document, walked for its copies or not, reads as ``json.loads``
    and the reader read it: the same chain, equal to the oracle's, or the
    same error text."""
    text = _mutate(serialize_chain(chain), edit, which, at, char)
    got = _outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_decode_copies", lambda text: None)  # none walked
        want = _outcome(text)
    assert got == want
    if isinstance(want, WitnessChain):
        assert want == oracles.read_chain(text)
        assert serialize_chain(got) == serialize_chain(want)


@pytest.mark.parametrize(
    "block, text",
    [("[[1,0],[true,1]]", "$.block[1]: expected a list of integers"),
     ("[[1,0],[0,1.0]]", "$.block[1]: expected a list of integers"),
     ("[[1,0],3]", "$.block[1]: expected a list of integers")],
    ids=["bool-entry", "float-entry", "non-list-row"],
)
def test_matrix_entry_error_texts(block, text):
    """The one-pass matrix check still names the first bad row
    (``test_ragged_matrix_error_text`` pins the ragged row's text)."""
    with pytest.raises(ParseError) as exc:
        parse_aut(UNIFORM_DOC % block)
    assert str(exc.value) == text


def test_claimed_values_carry_no_inverse_and_intern_with_atoms():
    """A target or final is read with no inverse witness, unless an equal env
    atom was read before it; an env atom read after an equal claimed value
    is still built with its inverse, and later equal values reuse it."""
    x, y = tau_power(2), tau_power(3)
    certs = tuple(
        Certificate(kind=WINDOW_IDENTITY, windows=(2,), environment={"a": atom}, word=Named("a"),
                    target_aut=y)
        for atom in (x, y)
    )
    step = ChainStep("s", Named("a"), certs)
    chain = parse_chain(serialize_chain(WitnessChain((step,), y, 3, "")))
    first, second = chain.steps[0].certificates
    assert first.target_aut == y and is_claimed(first.target_aut)
    assert first.target_aut.block.inverse is None and first.target_aut.window_inverse is None
    assert not is_claimed(second.environment["a"])
    assert second.target_aut is second.environment["a"] is chain.final
    assert not is_claimed(first.environment["a"])
    with pytest.raises(CompositionUnsupportedError):
        invert(first.target_aut)
    with pytest.raises(CompositionUnsupportedError):
        compose(first.target_aut, x)
    assert invert(witnessed(first.target_aut)) == invert(y)


def test_parses_share_no_atom():
    text = serialize_chain(km_pipeline(canonical_shear(5, 4), (2, 3)))
    first, second = parse_chain(text), parse_chain(text)
    assert first == second
    assert not {id(a) for a in _parsed_atoms(first)} & {id(a) for a in _parsed_atoms(second)}


def test_repeated_bad_atom_fails_at_its_first_path():
    bad = '{"variant":"uniform","window":[],"block":[[2,0],[0,1]]}'
    doc = (
        '{"format_version":1,"kind":"certificate","claim":"window-identity","windows":[2],'
        f'"env":{{"a":{bad},"b":{bad}}},"word":{{"op":"named","name":"a"}},"target_aut":{bad}}}'
    )
    with pytest.raises(ValidationError, match=r"^\$\.env\.a: block matrix is not unimodular$"):
        parse_certificate(doc)


def test_ragged_matrix_error_text():
    with pytest.raises(DimensionError) as exc:
        parse_aut(UNIFORM_DOC % "[[1,0],[0]]")
    assert str(exc.value) == "ragged rows in matrix literal"


def test_parsed_matrices_are_validated_once(monkeypatch):
    """The JSON reader checks every entry, so no parsed matrix of the (5,4)
    chain is validated again on construction."""
    text = serialize_chain(km_pipeline(canonical_shear(5, 4), (2, 3)))
    calls = []
    orig = IntMatrix.__post_init__
    monkeypatch.setattr(IntMatrix, "__post_init__", lambda m: calls.append(m) or orig(m))
    parse_chain(text)
    assert calls == []


def test_parse_document_dispatch():
    assert parse_document(serialize_aut(tau_power(2))) == tau_power(2)
    with pytest.raises(ParseError):
        parse_document('{"format_version":1,"kind":"mystery"}')


def test_descriptor_file():
    text = (
        '{"format_version":1,"kind":"descriptors","items":['
        '{"type":"finite","primes":[2,3]},'
        '{"type":"all"},'
        '{"type":"all-except","excluded":[5]},'
        '{"type":"union-with-prefix","finite":[3],"excluded":[3,7]}]}'
    )
    descs = parse_descriptors(text)
    assert descs[0] == FinitePrimes(frozenset({2, 3}))
    assert descs[2] == UnionWithPrefix(frozenset(), frozenset({5}))
    assert descs[3].contains(3) and not descs[3].contains(7)
    with pytest.raises(ParseError):
        parse_descriptors('{"format_version":1,"kind":"descriptors","items":[{"type":"x"}]}')


@pytest.mark.parametrize(
    "items, path",
    [
        ('{"type":"finite","primes":[4,9]},{"type":"finite","primes":[4]}', "$.items[0].primes"),
        ('{"type":"finite","primes":[2]},{"type":"all-except","excluded":[0]}',
         "$.items[1].excluded"),
        ('{"type":"union-with-prefix","finite":[3,-3],"excluded":[]}', "$.items[0].finite"),
        ('{"type":"union-with-prefix","finite":[3],"excluded":[15]}', "$.items[0].excluded"),
    ],
)
def test_descriptor_non_prime_is_refused(items, path):
    with pytest.raises(ParseError) as exc:
        parse_descriptors('{"format_version":1,"kind":"descriptors","items":[' + items + "]}")
    assert exc.value.path == path


def test_round_trip_random_auts():
    rng = random.Random(50)
    for _ in range(200):
        kind = rng.randrange(3)
        if kind == 0:
            aut = uniform(random_unimodular(rng, rng.randint(1, 3)))
        elif kind == 1:
            support = tuple(sorted(rng.sample(range(8), rng.randint(1, 3))))
            aut = finitary(support, random_unimodular(rng, len(support)))
        else:
            prefix = tuple(rng.choice([2, 3, 5, 7]) for _ in range(rng.randint(0, 3)))
            aut = graded(
                prefix,
                tuple(rng.sample([11, 13, 17], rng.randint(0, 2))),
                negated=rng.random() < 0.5,
            )
        text = serialize_aut(aut)
        again = parse_aut(text)
        assert again == aut
        assert serialize_aut(again) == text


def test_byte_determinism():
    chain = km_pipeline(tau_power(2))
    assert serialize_chain(chain) == serialize_chain(km_pipeline(tau_power(2)))
    g = graded((3, 2), (13, 11))
    assert serialize_aut(g) == serialize_aut(graded((3, 2), (11, 13)))


def _inverse_tower(depth: int) -> dict:
    obj = {"op": "named", "name": "a"}
    for _ in range(depth - 1):
        obj = {"op": "inverse", "inner": obj}
    return obj


def test_word_depth_limit():
    deepest = _inverse_tower(MAX_WORD_DEPTH)
    assert word_to_obj(word_from_obj(deepest)) == deepest
    with pytest.raises(ParseError) as exc:
        word_from_obj(_inverse_tower(MAX_WORD_DEPTH + 1), "$.word")
    assert exc.value.path == "$.word" + ".inner" * MAX_WORD_DEPTH
    assert "deeper than" in exc.value.message


def _word_doc(word: dict) -> str:
    return json.dumps({"format_version": 1, "kind": "word", "word": word, "env": {}})


def _chain_doc(edit) -> str:
    doc = json.loads(serialize_chain(km_pipeline(canonical_shear(1, 3))))
    edit(doc)
    return json.dumps(doc)


_A, _B = {"op": "named", "name": "a"}, {"op": "named", "name": "b"}
_DEEP = _inverse_tower(MAX_WORD_DEPTH - 1)
# documents whose words repeat a subtree, and the path and message of the
# error each parse raises, recorded before a parse shared equal subtrees
SHARED_SUBTREE_ERRORS = [
    (
        _word_doc({"op": "product", "factors": [_DEEP, {"op": "inverse", "inner": _DEEP}]}),
        "$.word.factors[1]" + ".inner" * (MAX_WORD_DEPTH - 1),
        f"word nests deeper than {MAX_WORD_DEPTH} tokens",
    ),
    (
        _word_doc({"op": "product", "factors": [
            {"op": "conj", "g": _A, "h": _B}, {"op": "conj", "g": _A, "h": {"op": "bogus"}}]}),
        "$.word.factors[1].h.op",
        "unknown token op 'bogus'",
    ),
    (
        _word_doc({"op": "conj", "g": _A, "h": {"op": "power", "inner": _A, "exponent": True}}),
        "$.word.h.exponent",
        "expected an integer",
    ),
    (
        _chain_doc(lambda doc: doc["steps"][3]["word"]["factors"][1]["inner"].update(op="bogus")),
        "$.steps[3].word.factors[1].inner.op",
        "unknown token op 'bogus'",
    ),
    (
        _chain_doc(lambda doc: doc["steps"][3]["certificates"][0]["word"]["factors"][0].pop("inner")),
        "$.steps[3].certificates[0].word.factors[0].inner",
        "missing field",
    ),
]


@pytest.mark.parametrize("text, path, message", SHARED_SUBTREE_ERRORS)
def test_word_errors_keep_their_paths_where_subtrees_repeat(text, path, message):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (exc.value.path, exc.value.message) == (path, message)


def test_deep_json_is_parse_error():
    text = '{"format_version":1,"kind":"aut","x":' + "[" * 5000 + "]" * 5000 + "}"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.path == "$"


# -- every document kind: round trips and fuzzed documents ---------------------


@st.composite
def auts(draw):
    """A finitary atom below coordinate 8, an eventually uniform atom with a
    head of up to two blocks of 1-3, or a graded shear."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        size = draw(st.integers(0, 3))
        support = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
        return finitary(support, draw(unimodular(size)))
    if kind == 1:
        d = draw(st.integers(1, 3))
        return eventually_uniform(draw(unimodular(d * draw(st.integers(0, 2)))), draw(unimodular(d)))
    return graded(
        draw(st.lists(st.integers(2, 9), max_size=3)),
        draw(st.sets(st.sampled_from([2, 3, 5, 7]))),
        draw(st.booleans()),
    )


ENVS = st.dictionaries(st.sampled_from(["a", "b", "c"]), auts(), max_size=3)
WORDS_ABC = words(names=("a", "b", "c"), exponents=st.integers(-3, 3))
VECTORS = st.lists(st.integers(-5, 5), max_size=4).map(tuple)
TEXT = st.text(max_size=4)


@st.composite
def certificates(draw):
    """Any claim kind with any fields: serialization does not check a claim."""
    return Certificate(
        kind=draw(st.sampled_from([WINDOW_IDENTITY, ORDER, ACTION_ON_VECTOR, WINDOW_SUM])),
        windows=tuple(draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))),
        environment=draw(ENVS),
        word=draw(st.none() | WORDS_ABC),
        target_aut=draw(st.none() | auts()),
        target_matrix=draw(st.none() | st.integers(0, 3).flatmap(unimodular)),
        vector=draw(st.none() | VECTORS),
        target_vector=draw(st.none() | VECTORS),
        order=draw(st.none() | st.integers(-2, 12)),
        summand_words=tuple(draw(st.lists(WORDS_ABC, max_size=2))),
    )


@st.composite
def chains(draw):
    steps = draw(
        st.lists(
            st.builds(ChainStep, TEXT, WORDS_ABC, st.lists(certificates(), max_size=2).map(tuple),
                      TEXT),
            max_size=2,
        )
    )
    return WitnessChain(tuple(steps), draw(auts()), draw(st.integers(0, 12)), draw(TEXT))


DOCUMENT_KINDS = {
    "aut": (auts(), serialize_aut, parse_aut),
    "word": (st.tuples(WORDS_ABC, ENVS), lambda pair: serialize_word(*pair), parse_word),
    "certificate": (certificates(), serialize_certificate, parse_certificate),
    "chain": (chains(), serialize_chain, parse_chain),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(DOCUMENT_KINDS)), st.data())
def test_parse_serialize_round_trip(kind, data):
    objects, serialize, parse = DOCUMENT_KINDS[kind]
    obj = data.draw(objects)
    text = serialize(obj)
    assert parse(text) == obj
    assert parse_document(text) == obj
    assert serialize(parse(text)) == text


def _nodes(obj, path=()):
    """The path of every node below the root of a decoded JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


_f = IntMatrix.from_rows([[3, -2], [1, 4]])
FUZZ_DOCUMENTS = [
    serialize_aut(finitary((3, 7), IntMatrix.from_rows([[2, 1], [1, 1]]))),
    serialize_aut(eventually_uniform(IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[1]]))),
    serialize_aut(graded((2, 3), (5,))),
    serialize_word(Product((Conj(Named("a"), Power(Named("b"), -2)), Inverse(Named("a")))),
                   {"a": tau_power(2), "b": finitary((1,), IntMatrix.from_rows([[-1]]))}),
    serialize_certificate(shear_order_certificate(order_n_shear(3, 5))),
    serialize_certificate(wans_sum_certificate(_f, wans_three(_f))),
    serialize_certificate(Certificate(kind=ORDER, windows=(4, 8), environment={"g": graded((2,), ())},
                                      word=Product((Named("g"), Inverse(Named("g")))), order=1)),
    serialize_chain(km_pipeline(canonical_shear(1, 3))),
]
DROP = object()
# a mutation: the index of a node below the root (modulo the node count), and
# the value it gets, or DROP to drop it from its object or list
MUTATIONS = st.tuples(
    st.integers(0, 999),
    st.one_of(st.just(DROP), st.integers(-3, 3), st.sampled_from([None, True, 1.5, "x", [], {}])),
)


@settings(max_examples=300)
@given(st.sampled_from(FUZZ_DOCUMENTS), st.lists(MUTATIONS, min_size=1, max_size=3))
# support (3, 7) made (3, 0), then the matrix emptied: unsorted, and of another size
@example(FUZZ_DOCUMENTS[0], [(11, 0), (2, [])])
def test_mutated_documents_raise_only_infrank_errors(text, mutations):
    """Dropped keys and elements, and wrong-typed or small-integer values, are
    refused or checked, never met with another exception."""
    doc = json.loads(text)
    for index, value in mutations:
        nodes = list(_nodes(doc))
        if not nodes:
            break
        *path, key = nodes[index % len(nodes)]
        parent = doc
        for k in path:
            parent = parent[k]
        if value is DROP:
            del parent[key]
        else:
            parent[key] = value
    try:
        parsed = parse_document(json.dumps(doc))
        if isinstance(parsed, Certificate):
            verify_certificate(parsed)
        elif isinstance(parsed, WitnessChain):
            verify_chain(parsed)
    except InfrankError:
        pass


# the values a JSON document holds where integers are expected, nested lists included
JSON_ENTRIES = st.recursive(
    st.integers(-(2**300), 2**300) | st.booleans() | st.floats() | st.text(max_size=2) | st.none(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.lists(st.lists(JSON_ENTRIES, max_size=4) | JSON_ENTRIES, max_size=4))
def test_int_check_agrees_with_the_entry_check(rows):
    """``_int_list`` accepts exactly the lists the per-entry check accepts, and
    ``_matrix`` refuses at the path of the first row that check refuses."""
    for row in rows:
        if is_int_list(row):
            assert serialize._int_list(row, "$.v") == tuple(row)
        else:
            with pytest.raises(ParseError) as exc:
                serialize._int_list(row, "$.v")
            assert (exc.value.path, exc.value.message) == ("$.v", "expected a list of integers")
    bad = next((i for i, row in enumerate(rows) if not is_int_list(row)), None)
    try:
        serialize._matrix(rows, "$.m")
    except ParseError as exc:
        assert (exc.path, exc.message) == (f"$.m[{bad}]", "expected a list of integers")
    except DimensionError:
        assert bad is None
    else:
        assert bad is None
