"""Formal words over named automorphisms, and re-checkable certificates.

A word is a finite token tree over named atoms; evaluating it on a window
multiplies the token matrices left to right, so a product token behaves
exactly like composition of the underlying automorphisms (the rightmost
factor acts first on column vectors).  ``Conj(g, h)`` abbreviates the
product h * g * h^-1.

A certificate packages one claim about a word -- equality with a target on
a window, exact multiplicative order, or the image of a specific vector --
together with everything needed to recheck it.  Verification is a pure
function of the certificate contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .autrep import (
    Finitary,
    RepAut,
    _check_window,
    core_window,
    head_and_period,
    is_claimed,
    nonzero_blocks,
    window_apply,
    window_matrix,
    witnessed,
)
from .autrep import invert as invert_aut
from .errors import DimensionError, ValidationError, WordError
from .intmat import IntMatrix
from .numth import factorize


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class Inverse:
    inner: "Token"


@dataclass(frozen=True)
class Power:
    inner: "Token"
    exponent: int


@dataclass(frozen=True)
class Conj:
    """h * g * h^-1."""

    g: "Token"
    h: "Token"


@dataclass(frozen=True)
class Product:
    factors: tuple["Token", ...]


Token = Union[Named, Inverse, Power, Conj, Product]
Environment = Mapping[str, RepAut]


def evaluate_word(word: Token, env: Environment, n: int) -> IntMatrix:
    """The n x n matrix of ``word``, multiplying factors left to right.

    Inverses are taken structurally (every atom carries its inverse
    witness), and equal subtrees are evaluated once per call.
    """
    return _eval(word, env, n, False, {})


def _eval(word: Token, env: Environment, n: int, inv: bool, memo: dict) -> IntMatrix:
    key = (word, inv)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(word, Named):
        try:
            aut = env[word.name]
        except KeyError:
            raise WordError(f"unresolved name {word.name!r}") from None
        out = window_matrix(invert_aut(aut) if inv else aut, n)
    elif isinstance(word, Inverse):
        out = _eval(word.inner, env, n, not inv, memo)
    elif isinstance(word, Power):
        e = word.exponent
        if e < 0:
            out = _eval(word.inner, env, n, not inv, memo).power(-e)
        else:
            out = _eval(word.inner, env, n, inv, memo).power(e)
    elif isinstance(word, Conj):
        # (h g h^-1)^-1 = h g^-1 h^-1
        h = _eval(word.h, env, n, False, memo)
        h_inv = _eval(word.h, env, n, True, memo)
        g = _eval(word.g, env, n, inv, memo)
        out = h * g * h_inv
    elif isinstance(word, Product):
        factors = reversed(word.factors) if inv else iter(word.factors)
        first = next(factors, None)
        out = IntMatrix.identity(n) if first is None else _eval(first, env, n, inv, memo)
        for f in factors:
            out = out * _eval(f, env, n, inv, memo)
    else:
        raise WordError(f"unknown token {word!r}")
    memo[key] = out
    return out


def push_word(word: Token, env: Environment, n: int, vector: Sequence[int]) -> tuple[int, ...]:
    """``evaluate_word(word, env, n).apply(vector)``, vector zero-padded to n.

    The vector is pushed through the token tree, rightmost factor first, one
    atom at a time; ``Conj(g, h)`` acts as h(g(h^-1 v)).  An application
    reads the atom only in the columns of the vector's nonzero coordinates
    (``window_apply``), never more than the n^2 entries of the window, and a
    product costs one multiply-add per nonzero term pair, up to n^3.  So a
    ``Power`` whose pushes would pass n applications is evaluated by
    products once and applied instead, and a word whose pushes pass n per
    token goes that way whole.  Every name is resolved and window-checked first, in
    ``evaluate_word``'s order, so both paths refuse a word with one error.
    """
    counts: dict[int, int] = {}
    pushes = _walk(word, env, n, False, counts)
    v = _pad(vector, n)
    if pushes > n * len(counts):
        return evaluate_word(word, env, n).apply(v)
    memo: dict = {}

    def push(w: Token, inv: bool, v: list[int]) -> list[int]:
        if isinstance(w, Named):
            aut = env[w.name]
            return window_apply(invert_aut(aut) if inv else aut, n, v)
        if isinstance(w, Inverse):
            return push(w.inner, not inv, v)
        if isinstance(w, Power):
            inner_inv = inv != (w.exponent < 0)
            if _dense_power(w, counts[id(w.inner)], n):
                # one dense power per call, however often the push passes it
                return list(_eval(w.inner, env, n, inner_inv, memo).power(abs(w.exponent)).apply(v))
            for _ in range(abs(w.exponent)):
                v = push(w.inner, inner_inv, v)
            return v
        if isinstance(w, Conj):
            # (h g h^-1)^-1 = h g^-1 h^-1
            return push(w.h, False, push(w.g, inv, push(w.h, True, v)))
        for f in w.factors if inv else reversed(w.factors):
            v = push(f, inv, v)
        return v

    return tuple(push(word, False, list(v)))


def _walk(word: Token, env: Environment, n: int, inv: bool, counts: dict[int, int]) -> int:
    """Raise what ``_eval`` raises first on a bad name, window or token, and
    return the atom applications a push makes, a dense power counting as
    one; ``counts`` keeps that number for each distinct token."""
    key = id(word)
    if key in counts:
        return counts[key]
    if isinstance(word, Named):
        if word.name not in env:
            raise WordError(f"unresolved name {word.name!r}")
        _check_window(env[word.name], n)
        count = 1
    elif isinstance(word, Inverse):
        count = _walk(word.inner, env, n, not inv, counts)
    elif isinstance(word, Power):
        inner = _walk(word.inner, env, n, inv != (word.exponent < 0), counts)
        count = 1 if _dense_power(word, inner, n) else abs(word.exponent) * inner
    elif isinstance(word, Conj):
        count = 2 * _walk(word.h, env, n, False, counts) + _walk(word.g, env, n, inv, counts)
    elif isinstance(word, Product):
        factors = reversed(word.factors) if inv else word.factors
        count = sum(_walk(f, env, n, inv, counts) for f in factors)
    else:
        raise WordError(f"unknown token {word!r}")
    counts[key] = count
    return count


def _dense_power(word: Power, inner_pushes: int, n: int) -> bool:
    return abs(word.exponent) * max(1, inner_pushes) > n


def word_names(word: Token) -> set[str]:
    if isinstance(word, Named):
        return {word.name}
    if isinstance(word, (Inverse, Power)):
        return word_names(word.inner)
    if isinstance(word, Conj):
        return word_names(word.g) | word_names(word.h)
    if isinstance(word, Product):
        out: set[str] = set()
        for f in word.factors:
            out |= word_names(f)
        return out
    raise WordError(f"unknown token {word!r}")


# -- certificates --------------------------------------------------------

WINDOW_IDENTITY = "window-identity"
ORDER = "order"
ACTION_ON_VECTOR = "action-on-vector"
WINDOW_SUM = "window-sum"

_CLAIM_KINDS = (WINDOW_IDENTITY, ORDER, ACTION_ON_VECTOR, WINDOW_SUM)


@dataclass(frozen=True)
class Certificate:
    """A single re-checkable claim.

    kind = window-identity : word equals ``target_aut`` (or ``target_matrix``)
                             on every listed window;
    kind = order           : word has exact multiplicative order ``order`` on
                             every listed window;
    kind = action-on-vector: word maps ``vector`` to ``target_vector`` (both
                             zero-padded to each window);
    kind = window-sum      : the windows of ``summand_words`` add up to
                             ``target_matrix`` zero-extended past its size.
    """

    kind: str
    windows: tuple[int, ...]
    environment: Mapping[str, RepAut] = field(default_factory=dict)
    word: Optional[Token] = None
    target_aut: Optional[RepAut] = None
    target_matrix: Optional[IntMatrix] = None
    vector: Optional[tuple[int, ...]] = None
    target_vector: Optional[tuple[int, ...]] = None
    order: Optional[int] = None
    summand_words: tuple[Token, ...] = ()

    def __post_init__(self):
        if self.kind not in _CLAIM_KINDS:
            raise ValidationError(f"unknown claim kind {self.kind!r}")
        if not self.windows:
            raise ValidationError("certificate needs at least one window")


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    report: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _pad(vec: Sequence[int], n: int) -> tuple[int, ...]:
    if len(vec) > n:
        if any(vec[n:]):
            raise DimensionError(f"vector support exceeds window {n}")
        return tuple(vec[:n])
    return tuple(vec) + (0,) * (n - len(vec))


def _shown(x: int) -> str:
    """x in decimal or, past the 4,300 digits Python writes by default, its
    sign, bit length and a SHA-256 prefix of its signed big-endian bytes."""
    try:
        return str(x)
    except ValueError:
        import hashlib  # on this rare path only: loading it costs every command megabytes of memory
    bits = x.bit_length()
    digest = hashlib.sha256(x.to_bytes(bits // 8 + 1, "big", signed=True)).hexdigest()[:12]
    return f"{'-' if x < 0 else ''}<{bits}-bit integer, sha256 {digest}>"


def _first_difference(a: IntMatrix, b: IntMatrix) -> str:
    for i in range(a.rows):
        for j in range(a.cols):
            x, y = a.data[i][j], b.data[i][j]
            if x != y:
                return f"entry ({i},{j}): got {_shown(x)}, expected {_shown(y)}"
    return "no difference"


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Recheck a certificate; never consults anything outside its fields.

    An identity or order claim on a window that ``autrep.core_window``
    reduces is checked once on the core window, and the verdict is reported
    for every window it stands for.  An action claim on such a window is
    pushed chunk by chunk on the core window (``_check_action``).  A claimed
    ``target_aut`` must also be shown unimodular (``_claimed_target``).
    """
    atoms = _core_atoms(cert)
    done: dict[int, tuple[bool, str]] = {}
    pushed: dict[tuple[int, ...], tuple[int, ...]] = {}
    lines: list[str] = []
    ok = True
    for n in cert.windows:
        reduced = None if atoms is None else core_window(atoms, n)
        if cert.kind == ACTION_ON_VECTOR:
            holds, detail = _check_action(cert, n, reduced, pushed)
        else:
            m = n if reduced is None else reduced[0]
            if m not in done:
                done[m] = _CHECKS[cert.kind](cert, m)
            holds, detail = done[m]
        ok = ok and holds
        lines.append(f"window {n}: {detail}")
    if ok and cert.kind == WINDOW_IDENTITY and is_claimed(cert.target_aut):
        broken = _claimed_target(cert.target_aut, done)
        if broken is not None:
            ok = False
            lines.append(f"target: {broken}")
    return VerifyResult(ok, tuple(lines))


def _claimed_target(target: RepAut, checked: Iterable[int]) -> Optional[str]:
    """None once a claimed target that held on the ``checked`` windows is
    shown unimodular, else why it is not.

    Each checked window equals the word's, a product of windows of atoms
    with inverse witnesses, so its determinant is +-1.  A finitary target's
    is det(matrix), and an eventually uniform target's is det(window) *
    det(block)^j on a window holding j >= 1 blocks, so then both factors are
    +-1 too.  When every checked window is the target's head alone, the
    checked inverse decides.
    """
    if isinstance(target, Finitary) or any(n > target.window_size for n in checked):
        return None
    try:
        witnessed(target)
    except ValidationError as exc:
        return str(exc)
    return None


def holds_on_every_window(cert: Certificate) -> bool:
    """Whether an identity claim, once verified, holds on every window, as an
    identity of automorphisms: one of its windows reduces to the core window
    H + L of its atoms and target (H when L = 0), which stands for them all."""
    atoms = _core_atoms(cert) if cert.kind == WINDOW_IDENTITY else None
    split = None if atoms is None else head_and_period(atoms)
    if split is None:
        return False
    core = (sum(split), split[1])
    return any(core_window(atoms, n) == core for n in cert.windows)


def _core_atoms(cert: Certificate) -> Optional[list[RepAut]]:
    """The atoms of a claim that ``core_window`` may reduce, the
    ``target_aut`` of an identity claim included; None for window-sum
    claims, ``target_matrix`` targets and words that name a missing atom."""
    if cert.kind == WINDOW_SUM or (cert.kind == WINDOW_IDENTITY and cert.target_aut is None):
        return None
    try:
        names = word_names(cert.word)
    except WordError:
        return None
    if not names <= cert.environment.keys():
        return None
    atoms = [cert.environment[name] for name in names]
    if cert.kind == WINDOW_IDENTITY:
        return atoms + [cert.target_aut]
    return atoms


def _check_identity(cert: Certificate, n: int) -> tuple[bool, str]:
    got = evaluate_word(cert.word, cert.environment, n)
    if cert.target_aut is not None:
        want = window_matrix(cert.target_aut, n)
    elif cert.target_matrix is not None:
        want = _extend(cert.target_matrix, n, fill_identity=True)
    else:
        raise ValidationError("window-identity certificate lacks a target")
    if got == want:
        return True, "identity holds"
    return False, f"MISMATCH at {_first_difference(got, want)}"


def _check_order(cert: Certificate, n: int) -> tuple[bool, str]:
    if cert.order is None or cert.order < 1:
        raise ValidationError("order certificate needs a positive order")
    k = cert.order
    w = evaluate_word(cert.word, cert.environment, n)
    if not w.power(k).is_identity():
        return False, f"word^{k} is not the identity"
    for p in factorize(k):
        if w.power(k // p).is_identity():
            return False, f"order divides {k // p}, not exactly {k}"
    return True, f"order is exactly {k}"


def _check_action(
    cert: Certificate,
    n: int,
    reduced: Optional[tuple[int, int]],
    pushed: dict[tuple[int, ...], tuple[int, ...]],
) -> tuple[bool, str]:
    """Push the vector on window n, or on its core window when ``reduced``
    gives one with its period.

    Window n is then the core window followed by copies of the core
    window's last period block (identity blocks for period 0).  So the
    first core coordinates are pushed on the core window, and each later
    period chunk that holds a nonzero coordinate is pushed in that last
    block; every other coordinate stays.  An all-zero vector maps to zero,
    and each distinct other vector is pushed once per certificate
    (``pushed`` is shared by its windows).  The assembled image is compared
    with the target over all n coordinates.
    """
    if cert.vector is None or cert.target_vector is None:
        raise ValidationError("action certificate needs vector and target_vector")
    if reduced is None:
        got = push_word(cert.word, cert.environment, n, cert.vector)
    else:
        core, period = reduced
        v = _pad(cert.vector, n)

        def image(chunk: tuple[int, ...]) -> tuple[int, ...]:
            if any(chunk) and chunk not in pushed:
                pushed[chunk] = push_word(cert.word, cert.environment, core, chunk)
            return pushed.get(chunk, chunk)

        image_list = list(image(v[:core]) + v[core:])
        if period:
            lead = (0,) * (core - period)
            for s in nonzero_blocks(v, core, period):
                image_list[s : s + period] = image(lead + v[s : s + period])[-period:]
        got = tuple(image_list)
    want = _pad(cert.target_vector, n)
    if got == want:
        return True, "action holds"
    k = next(i for i in range(n) if got[i] != want[i])
    return False, f"MISMATCH at coordinate {k}: got {_shown(got[k])}, expected {_shown(want[k])}"


def _check_sum(cert: Certificate, n: int) -> tuple[bool, str]:
    if not cert.summand_words or cert.target_matrix is None:
        raise ValidationError("window-sum certificate needs summands and a target")
    total = IntMatrix.zeros(n, n)
    for word in cert.summand_words:
        total = total + evaluate_word(word, cert.environment, n)
    want = _extend(cert.target_matrix, n)
    if total == want:
        return True, "sum matches target"
    return False, f"MISMATCH at {_first_difference(total, want)}"


_CHECKS = {WINDOW_IDENTITY: _check_identity, ORDER: _check_order, WINDOW_SUM: _check_sum}


def _extend(m: IntMatrix, n: int, fill_identity: bool = False) -> IntMatrix:
    """Extend a square matrix to size n, padding with zeros or the identity.

    Sum targets extend by zero (the endomorphism vanishes past its data);
    identity targets extend by the identity (the automorphism fixes later
    coordinates).
    """
    if m.rows > n:
        raise DimensionError(f"target of size {m.rows} exceeds window {n}")
    if m.rows == n:
        return m
    rows = [list(r) + [0] * (n - m.rows) for r in m.data]
    for i in range(m.rows, n):
        tail = [0] * n
        if fill_identity:
            tail[i] = 1
        rows.append(tail)
    return IntMatrix.from_rows(rows)
