"""Canonical JSON serialization for automorphisms, words, certificates and
witness chains, plus the plain-text matrix format used by the CLI.

Documents carry a ``format_version`` and a ``kind`` tag; serialization is
byte-deterministic (sorted keys, fixed set orderings), and parsing
annotates structural errors with the path of the offending node.  A
chain's copies of one environment or top-level word text, at any spacing,
are decoded once into one object (``_decode_copies``), and a parse reads
each such object once (``_once``); there is no other copy rule.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from typing import Any, Mapping

from .autrep import (
    EventuallyUniform,
    Finitary,
    RepAut,
    eventually_uniform,
    finitary,
    graded,
    is_claimed,
)
from .errors import DimensionError, ParseError, ValidationError
from .intmat import IntMatrix, Pairs
from .numth import is_prime
from .witness import ChainStep, WitnessChain
from .words import Certificate, Conj, Inverse, Named, Power, Product, Token

FORMAT_VERSION = 1

# Engine-written words nest at most 7 tokens deep; parsed words are refused
# past this depth, which bounds every recursive walk over a parsed word.
MAX_WORD_DEPTH = 100


# -- matrix text format ----------------------------------------------------


def format_matrix_text(rows: Pairs, cols: int) -> str:
    """The matrix with row pairs ``rows`` (``intmat.Pairs``) and ``cols``
    columns as text: first line "rows cols", then one line of integers per
    row.

    Each row is cut from one string of ``"0 "`` pieces: only its nonzero
    entries are converted to text.
    """
    zeros, end = "0 " * cols, 2 * cols - 1
    parts = [f"{len(rows)} {cols}\n"]
    for row in rows:
        at = 0
        for c, v in row:
            parts += zeros[at : 2 * c], str(v)
            at = 2 * c + 1
        parts += zeros[at:end], "\n"
    return "".join(parts)


def parse_matrix_text(text: str) -> IntMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("line 1", "empty matrix document")
    try:
        rows, cols = (int(x) for x in lines[0].split())
    except ValueError:
        raise ParseError("line 1", "expected 'rows cols'") from None
    if cols == 0:
        # the rows of an n x 0 matrix are empty lines, dropped above; restore
        # no more of them than the text has line breaks after the header
        lines += [""] * min(rows, text.count("\n") - 1)
    if len(lines) != rows + 1:
        raise ParseError("line 1", f"expected {rows} data rows, found {len(lines) - 1}")
    data = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"line {i}", "non-integer entry") from None
        if len(row) != cols:
            raise ParseError(f"line {i}", f"expected {cols} entries, found {len(row)}")
        data.append(row)
    return IntMatrix.from_rows(data)


# -- JSON helpers ------------------------------------------------------------


def _need(obj: Mapping, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, found {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{path}.{key}", "missing field")
    return obj[key]


_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _typed(obj: Any, kind: type, path: str) -> Any:
    """``obj`` when it is an int (not a bool), a str or a list, as ``kind`` asks."""
    if not isinstance(obj, kind) or (kind is int and isinstance(obj, bool)):
        raise ParseError(path, f"expected {_KINDS[kind]}")
    return obj


def _int_list(obj: Any, path: str) -> tuple[int, ...]:
    """``obj`` as a tuple if it is a list of ints, by one exact-type pass at C
    speed, which refuses bool, the one int subclass ``json`` makes."""
    if not isinstance(obj, list) or not {int}.issuperset(map(type, obj)):
        raise ParseError(path, "expected a list of integers")
    return tuple(obj)


def _matrix(obj: Any, path: str) -> IntMatrix:
    """``obj`` as a matrix if it is a list of equally long lists of ints,
    checked by passes at C speed over all rows, all entries and the row
    lengths; the path of the first bad row is made only on failure."""
    if not isinstance(obj, list):
        raise ParseError(path, "expected a nested integer array")
    if not {list}.issuperset(map(type, obj)) or not {int}.issuperset(
        map(type, itertools.chain.from_iterable(obj))
    ):
        for i, row in enumerate(obj):
            _int_list(row, f"{path}[{i}]")
    if len(set(map(len, obj))) > 1:
        raise DimensionError("ragged rows in matrix literal")
    return IntMatrix._trusted(tuple(map(tuple, obj)))


def _matrix_obj(m: IntMatrix) -> list[list[int]]:
    return [list(row) for row in m.data]


# -- automorphisms -----------------------------------------------------------


def aut_to_obj(aut: RepAut) -> dict:
    if isinstance(aut, Finitary):
        return {
            "variant": "finitary",
            "support": list(aut.support),
            "matrix": _matrix_obj(aut.matrix),
        }
    if isinstance(aut, EventuallyUniform):
        return {
            "variant": "uniform",
            "window": _matrix_obj(aut.window),
            "block": _matrix_obj(aut.block.matrix),
        }
    return {
        "variant": "graded",
        "prefix": list(aut.prefix),
        "excluded": sorted(aut.excluded),
        "negated": aut.negated,
    }


def aut_from_obj(obj: Any, path: str, table: dict, claimed: bool = False) -> RepAut:
    """Read one atom or, with ``claimed``, one claimed value (a ``target_aut``
    or a chain's ``final``), built with no inverse witness.  ``table`` maps
    the validated fields of each value read so far to the value, so that a
    repeated atom is built and inverted once.  A claimed value reuses an
    equal atom; an atom read after an equal claimed value is built with its
    inverse and takes its place."""
    variant = _need(obj, "variant", path)
    if variant == "finitary":
        make, args = finitary, (
            _int_list(_need(obj, "support", path), f"{path}.support"),
            _matrix(_need(obj, "matrix", path), f"{path}.matrix"),
        )
    elif variant == "uniform":
        make, args = eventually_uniform, (
            _matrix(_need(obj, "window", path), f"{path}.window"),
            _matrix(_need(obj, "block", path), f"{path}.block"),
        )
    elif variant == "graded":
        negated = _need(obj, "negated", path)
        if not isinstance(negated, bool):
            raise ParseError(f"{path}.negated", "expected a boolean")
        claimed = False  # a graded value is an automorphism as built
        make, args = graded, (
            _int_list(_need(obj, "prefix", path), f"{path}.prefix"),
            _int_list(_need(obj, "excluded", path), f"{path}.excluded"),
            negated,
        )
    else:
        raise ParseError(f"{path}.variant", f"unknown variant {variant!r}")
    key = (variant, *(x.data if isinstance(x, IntMatrix) else x for x in args))
    hit = table.get(key)
    if hit is None or (is_claimed(hit) and not claimed):
        try:
            hit = table[key] = make(*args, claimed=True) if claimed else make(*args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return hit


# -- words -------------------------------------------------------------------


def word_to_obj(word: Token) -> dict:
    if isinstance(word, Named):
        return {"op": "named", "name": word.name}
    if isinstance(word, Inverse):
        return {"op": "inverse", "inner": word_to_obj(word.inner)}
    if isinstance(word, Power):
        return {"op": "power", "inner": word_to_obj(word.inner), "exponent": word.exponent}
    if isinstance(word, Conj):
        return {"op": "conj", "g": word_to_obj(word.g), "h": word_to_obj(word.h)}
    if isinstance(word, Product):
        return {"op": "product", "factors": [word_to_obj(f) for f in word.factors]}
    raise ValidationError(f"unknown token {word!r}")


def word_from_obj(obj: Any, path: str = "$", depth: int = 1, table: dict | None = None) -> Token:
    """Read a word, interning each token in ``table`` (the parse's, or a new
    one) by its op, its name or exponent and its interned children's
    identities: equal subtrees become one object, and no key hashes a subtree."""
    if depth > MAX_WORD_DEPTH:
        raise ParseError(path, f"word nests deeper than {MAX_WORD_DEPTH} tokens")
    table = {} if table is None else table

    def read(sub: Any, at: str) -> Token:
        return word_from_obj(sub, at, depth + 1, table)

    op = _need(obj, "op", path)
    if op == "named":
        name = _typed(_need(obj, "name", path), str, f"{path}.name")
        key, token = (op, name), Named(name)
    elif op == "inverse":
        inner = read(_need(obj, "inner", path), f"{path}.inner")
        key, token = (op, id(inner)), Inverse(inner)
    elif op == "power":
        e = _typed(_need(obj, "exponent", path), int, f"{path}.exponent")
        inner = read(_need(obj, "inner", path), f"{path}.inner")
        key, token = (op, id(inner), e), Power(inner, e)
    elif op == "conj":
        g, h = (read(_need(obj, part, path), f"{path}.{part}") for part in ("g", "h"))
        key, token = (op, id(g), id(h)), Conj(g, h)
    elif op == "product":
        objs = _typed(_need(obj, "factors", path), list, f"{path}.factors")
        factors = tuple(read(f, f"{path}.factors[{i}]") for i, f in enumerate(objs))
        key, token = (op, *map(id, factors)), Product(factors)
    else:
        raise ParseError(f"{path}.op", f"unknown token op {op!r}")
    return table.setdefault(key, token)


def _env_to_obj(env: Mapping[str, RepAut]) -> dict:
    return {name: aut_to_obj(aut) for name, aut in env.items()}


def _env_from_obj(obj: Any, path: str, table: dict) -> dict[str, RepAut]:
    """Read an environment, or reuse the mapping read for ``obj`` itself."""
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object of named automorphisms")
    return _once(
        table,
        "env",
        obj,
        lambda: {name: aut_from_obj(body, f"{path}.{name}", table) for name, body in obj.items()},
    )


def _word(obj: Any, path: str, table: dict) -> Token:
    """Read a top-level word (of a certificate, a step or a word document),
    or reuse the token read for ``obj`` itself."""
    return _once(table, "word", obj, lambda: word_from_obj(obj, path, table=table))


def _once(table: dict, kind: str, obj: Any, read) -> Any:
    """``read()``, or the value it gave when this parse read ``obj`` itself
    as ``kind`` before.  ``_decode_copies`` makes every copy of an
    environment or a top-level word in a chain one object, so a run of
    copies is read, and validated, once; a copy that differs in any byte is
    another object, read on its own, at its own path."""
    key = kind, id(obj)
    if key not in table:
        table[key] = obj, read()  # holding obj keeps its id from being reused
    return table[key][1]


# -- certificates ------------------------------------------------------------


def cert_to_obj(cert: Certificate) -> dict:
    obj = {"claim": cert.kind, "env": _env_to_obj(cert.environment), **_claim_fields(cert)}
    if cert.word is not None:
        obj["word"] = word_to_obj(cert.word)
    return obj


def _claim_fields(cert: Certificate) -> dict:
    """The fields of a certificate past its claim kind and environment,
    but for its word."""
    obj: dict[str, Any] = {"windows": list(cert.windows)}
    if cert.target_aut is not None:
        obj["target_aut"] = aut_to_obj(cert.target_aut)
    if cert.target_matrix is not None:
        obj["target_matrix"] = _matrix_obj(cert.target_matrix)
    if cert.vector is not None:
        obj["vector"] = list(cert.vector)
    if cert.target_vector is not None:
        obj["target_vector"] = list(cert.target_vector)
    if cert.order is not None:
        obj["order"] = cert.order
    if cert.summand_words:
        obj["summands"] = [word_to_obj(w) for w in cert.summand_words]
    return obj


def cert_from_obj(obj: Any, path: str, table: dict) -> Certificate:
    claim = _need(obj, "claim", path)
    windows = _int_list(_need(obj, "windows", path), f"{path}.windows")
    env = _env_from_obj(obj.get("env", {}), f"{path}.env", table)
    kwargs: dict[str, Any] = {}
    if "word" in obj:
        kwargs["word"] = _word(obj["word"], f"{path}.word", table)
    if "target_aut" in obj:
        kwargs["target_aut"] = aut_from_obj(obj["target_aut"], f"{path}.target_aut", table, True)
    if "target_matrix" in obj:
        kwargs["target_matrix"] = _matrix(obj["target_matrix"], f"{path}.target_matrix")
    if "vector" in obj:
        kwargs["vector"] = _int_list(obj["vector"], f"{path}.vector")
    if "target_vector" in obj:
        kwargs["target_vector"] = _int_list(obj["target_vector"], f"{path}.target_vector")
    if "order" in obj:
        kwargs["order"] = _typed(obj["order"], int, f"{path}.order")
    if "summands" in obj:
        summands = _typed(obj["summands"], list, f"{path}.summands")
        kwargs["summand_words"] = tuple(
            _word(w, f"{path}.summands[{i}]", table) for i, w in enumerate(summands)
        )
    try:
        return Certificate(kind=claim, windows=windows, environment=env, **kwargs)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from None


# -- chains ------------------------------------------------------------------


def chain_from_obj(obj: Any, path: str, table: dict) -> WitnessChain:
    level = _typed(_need(obj, "level", path), int, f"{path}.level")
    steps_obj = _typed(_need(obj, "steps", path), list, f"{path}.steps")
    steps = []
    for i, step in enumerate(steps_obj):
        spath = f"{path}.steps[{i}]"
        certs = _typed(_need(step, "certificates", spath), list, f"{spath}.certificates")
        steps.append(
            ChainStep(
                name=_typed(_need(step, "name", spath), str, f"{spath}.name"),
                word=_word(_need(step, "word", spath), f"{spath}.word", table),
                certificates=tuple(
                    cert_from_obj(c, f"{spath}.certificates[{j}]", table)
                    for j, c in enumerate(certs)
                ),
                note=_typed(step.get("note", ""), str, f"{spath}.note"),
            )
        )
    return WitnessChain(
        steps=tuple(steps),
        final=aut_from_obj(_need(obj, "final", path), f"{path}.final", table, True),
        level=level,
        scope_note=_typed(_need(obj, "scope_note", path), str, f"{path}.scope_note"),
    )


# -- top-level documents -----------------------------------------------------


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# json's C scanner, which reads one value at an offset as ``json.loads`` would
_scan = json.JSONDecoder().scan_once
# JSON's insignificant whitespace (RFC 8259, section 2): space, tab, LF and
# CR; a walk tests one character before it matches, as json's own decoder does
_WS, _space = json.decoder.WHITESPACE_STR, json.decoder.WHITESPACE.match

# The path of a chain document that ``_decode_copies`` walks itself: an
# object maps keys to the shapes of their values, a one-item list is an array
# of that shape, and ``...`` marks an environment or a top-level word, which
# may repeat the text of an earlier one.  Every other value is scanned whole.
_CHAIN_PATH = {"steps": [{"certificates": [{"env": ..., "word": ...}], "word": ...}]}
# a chain document as written: sorted keys put "final" first
_CHAIN_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"final"[ \t\n\r]*:')
# A walk keeps the distinct copy texts it decodes under their first
# _PREFIX_CHARS characters, at most _COPIES_KEPT of them under one prefix:
# a copy is compared with at most that many, so comparisons stay linear in
# the text, and copies that differ early are all kept
_PREFIX_CHARS = 64
_COPIES_KEPT = 8


def _decode_copies(text: str) -> dict | None:
    """``json.loads(text)`` for a chain document whose first key is
    ``"final"``, with each distinct environment or top-level word text
    decoded once: a copy whose text starts with one decoded before is that
    object.  This is exact: an object's text is prefix-free, so the scanner
    would read just those bytes there and build an equal value.  Readers
    share such objects and must not change them.  None for any other
    document, and for anything the walk does not expect (another character
    on its path, an empty array or object on it, bad JSON, trailing data)."""
    if not isinstance(text, str) or not _CHAIN_HEAD.match(text):
        return None
    kept: dict[str, list[tuple[str, Any]]] = {}

    def walk(at: int, shape: Any) -> tuple[Any, int]:
        if text[at] in _WS:
            at = _space(text, at).end()
        c, kind = text[at], type(shape)
        if shape is ... and c == "{":
            same = kept.setdefault(text[at : at + _PREFIX_CHARS], [])
            for copy, value in same:
                if text.startswith(copy, at):
                    return value, at + len(copy)
            value, end = _scan(text, at)
            if len(same) < _COPIES_KEPT:
                same.append((text[at:end], value))
            return value, end
        if not (kind is dict and c == "{" or kind is list and c == "["):
            return _scan(text, at)
        out, close = ({}, "}") if kind is dict else ([], "]")
        at += 1
        while True:
            if kind is list:
                value, at = walk(at, shape[0])
                out.append(value)
            else:
                if text[at] in _WS:
                    at = _space(text, at).end()
                if text[at] != '"':
                    raise ValueError
                key, at = _scan(text, at)
                if text[at] in _WS:
                    at = _space(text, at).end()
                if text[at] != ":":
                    raise ValueError
                out[key], at = walk(at + 1, shape.get(key))
            if text[at] in _WS:
                at = _space(text, at).end()
            c, at = text[at], at + 1
            if c == close:
                return out, at
            if c != ",":
                raise ValueError

    try:
        obj, end = walk(0, _CHAIN_PATH)
    except (ValueError, StopIteration, IndexError, RecursionError):
        return None
    return obj if _space(text, end).end() == len(text) else None


def _document(kind: str, body: dict) -> str:
    return _encode({"format_version": FORMAT_VERSION, "kind": kind, **body}) + "\n"


def serialize_aut(aut: RepAut) -> str:
    return _document("aut", aut_to_obj(aut))


def serialize_word(word: Token, env: Mapping[str, RepAut]) -> str:
    return _document("word", {"word": word_to_obj(word), "env": _env_to_obj(env)})


def serialize_certificate(cert: Certificate) -> str:
    return _document("certificate", cert_to_obj(cert))


def serialize_chain(chain: WitnessChain) -> str:
    """The chain's canonical document, with each distinct environment (by
    its names and atom identities) and each distinct word object encoded
    once and their text spliced in: sorted keys put ``claim`` then ``env``
    first and ``word`` last in a certificate, ``certificates`` first and
    ``word`` last in a step, and ``steps`` last in the chain."""
    envs: dict[tuple, str] = {}
    words: dict[int, str] = {}

    def word_text(word: Token) -> str:
        if id(word) not in words:  # the chain holds word, so its id stays its own
            words[id(word)] = _encode(word_to_obj(word))
        return words[id(word)]

    def cert_text(cert: Certificate) -> str:
        key = tuple((name, id(aut)) for name, aut in cert.environment.items())
        if key not in envs:
            envs[key] = _encode(_env_to_obj(cert.environment))
        fields = _encode(_claim_fields(cert))[1:-1]
        word = "" if cert.word is None else f',"word":{word_text(cert.word)}'
        return f'{{"claim":{_encode(cert.kind)},"env":{envs[key]},{fields}{word}}}'

    steps = ",".join(
        f'{{"certificates":[{",".join(map(cert_text, step.certificates))}],'
        f'{_encode({"name": step.name, "note": step.note})[1:-1]},"word":{word_text(step.word)}}}'
        for step in chain.steps
    )
    head = {"level": chain.level, "scope_note": chain.scope_note, "final": aut_to_obj(chain.final)}
    return _document("chain", head)[:-2] + f',"steps":[{steps}]}}\n'


def _load(text: str, kind: str | None = None) -> dict:
    """Decode a document, by ``_decode_copies`` or else ``json.loads``; with
    ``kind`` given, refuse any other kind tag.  A chain the walk does not
    take (one with a byte order mark or invalid JSON, say) is decoded again
    by ``json.loads``, which reads it or gives its own error."""
    try:
        obj = _decode_copies(text) or json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    except ValueError:  # json's one other error: an integer past int's digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError("$", f"invalid JSON: an integer has more than {limit} digits") from None
    except RecursionError:
        raise ParseError("$", "document nests too deeply to decode") from None
    if not isinstance(obj, dict):
        raise ParseError("$", "expected a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError("$.format_version", f"unsupported version {version!r}")
    if kind is not None and obj.get("kind") != kind:
        raise ParseError("$.kind", f"expected {kind!r}, found {obj.get('kind')!r}")
    return obj


def _word_doc(obj: dict, path: str, table: dict) -> tuple[Token, dict[str, RepAut]]:
    return _word(_need(obj, "word", path), f"{path}.word", table), _env_from_obj(
        obj.get("env", {}), f"{path}.env", table
    )


_READERS = {
    "aut": aut_from_obj,
    "word": _word_doc,
    "certificate": cert_from_obj,
    "chain": chain_from_obj,
}


def _parse(text: str, kind: str | None) -> Any:
    """Read a document with the reader of its kind; ``kind`` None accepts any.
    Equal atoms, and equal word subtrees, become one object each, and each
    decoded environment or top-level word object is read once, through a
    table that lives for this call."""
    obj = _load(text, kind)
    found = obj.get("kind")
    if not isinstance(found, str) or found not in _READERS:
        raise ParseError("$.kind", f"unknown document kind {found!r}")
    return _READERS[found](obj, "$", {})


def parse_aut(text: str) -> RepAut:
    return _parse(text, "aut")


def parse_word(text: str) -> tuple[Token, dict[str, RepAut]]:
    return _parse(text, "word")


def parse_certificate(text: str) -> Certificate:
    return _parse(text, "certificate")


def parse_chain(text: str) -> WitnessChain:
    return _parse(text, "chain")


def _primes(item: Any, key: str, path: str) -> frozenset[int]:
    values = _int_list(_need(item, key, path), f"{path}.{key}")
    for p in values:
        if not is_prime(p):
            raise ParseError(f"{path}.{key}", f"{p} is not prime")
    return frozenset(values)


def parse_descriptors(text: str):
    """Parse a prime-set descriptor list document (used by ``filters centered``).

    "all" and "all-except" are the cofinite sets, with no finite part.
    """
    from .classify import FinitePrimes, UnionWithPrefix

    obj = _load(text, "descriptors")
    items = _typed(_need(obj, "items", "$"), list, "$.items")
    out = []
    for i, item in enumerate(items):
        path = f"$.items[{i}]"
        t = _need(item, "type", path)
        if t == "finite":
            out.append(FinitePrimes(_primes(item, "primes", path)))
        elif t == "all":
            out.append(UnionWithPrefix(frozenset(), frozenset()))
        elif t == "all-except":
            out.append(UnionWithPrefix(frozenset(), _primes(item, "excluded", path)))
        elif t == "union-with-prefix":
            out.append(UnionWithPrefix(_primes(item, "finite", path), _primes(item, "excluded", path)))
        else:
            raise ParseError(f"{path}.type", f"unknown descriptor type {t!r}")
    return out


def parse_document(text: str):
    """Parse any serialized document by its kind tag."""
    return _parse(text, None)
