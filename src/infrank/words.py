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

import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional, Sequence

from .autrep import (
    Finitary,
    RepAut,
    _check_window,
    core_window,
    head_and_period,
    is_claimed,
    nonzero_blocks,
    window_pairs,
    witnessed,
)
from .autrep import invert as invert_aut
from .errors import AlignmentError, DimensionError, ValidationError, WordError
from .intmat import (
    IntMatrix,
    Pairs,
    apply_pairs,
    identity_pairs,
    pairs_power,
    pairs_product,
    pairs_sum,
)
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


Token = Named | Inverse | Power | Conj | Product
Environment = Mapping[str, RepAut]


def evaluate_word(word: Token, env: Environment, n: int) -> IntMatrix:
    """The n x n matrix of ``word``, multiplying factors left to right.

    Inverses are taken structurally (every atom carries its inverse
    witness), and each subtree object is read once per call (``_Rows``), on
    row pairs; the result is made dense once, at the end.
    """
    return IntMatrix.from_pairs(_Rows(env, n).walk(word), n)


def push_word(word: Token, env: Environment, n: int, vector: Sequence[int]) -> tuple[int, ...]:
    """``evaluate_word(word, env, n).apply(vector)``, vector zero-padded to n:
    the word's row pairs (``_Rows``) applied to it."""
    v = _pad(vector, n)
    return apply_pairs(_Rows(env, n).walk(word), v)


class _Family:
    """What the walks over one environment share: each walk by its window,
    held weakly (a walk holds its family, so a strong hold would make a
    cycle), and the atoms each token names (``atoms``) and their
    ``head_and_period`` (``core``), each read once per token."""

    def __init__(self, env: Environment):
        self.env, self.walks, self.tokens, self.splits = env, {}, {}, {}

    def walk(self, n: int) -> "_Rows":
        """The family's walk on window n, made on first use."""
        ref = self.walks.get(n)
        walk = None if ref is None else ref()
        return _Rows(self.env, n, self) if walk is None else walk

    def atoms(self, token: Token) -> Optional[list[RepAut]]:
        """The atoms token names (``named_atoms``), kept once known: None
        while it names an atom the env lacks (the env may gain names, never
        rebind one)."""
        hit = self.tokens.get(id(token))
        if hit is None:
            atoms = named_atoms(self.env, token)
            if atoms is None:
                return None
            hit = self.tokens[id(token)] = token, atoms
        return hit[1]

    def core(self, token: Token, n: int) -> Optional[tuple[int, int]]:
        """(core, period) of ``autrep.core_window`` for the atoms token
        names, when the core is smaller than n; else None."""
        split = self.splits.get(id(token))
        if split is None:
            atoms = self.atoms(token)  # which keeps token, and so its id
            if atoms is None:
                return None
            split = self.splits[id(token)] = (head_and_period(atoms),)
        core = core_window(split[0], n)
        return core if core is not None and core[0] < n else None


class _Rows:
    """A word read as the row pairs of its n x n window (``intmat.Pairs``),
    each (token, inverted) pair once, keyed by the token's identity: a parse
    and the engines make equal subtrees one object, so ``memo`` counts
    distinct subtrees.  The memo keeps each token beside its rows, so a
    keyed token lives as long as the walk and its id cannot pass to
    another; it keeps a letter's power under (id, e), |e| >= 2, too.

    A name is read on its window (``autrep.window_pairs``, which checks it).
    Any other token is checked (``_check``), which raises a defective word's
    first error in the tree's order, then read by two rules, exact once
    every atom is aligned on n, as each atom's window is then a direct
    summand.  Free reduction: the word is its letters (``_letters``), token
    and exponent, adjacent letters on one token merged and zero exponents
    dropped, each its token's reading to the exponent.  Core windows: a
    letter on a compound token (a product inside the product) whose atoms'
    ``head_and_period`` (H, L) has a core window (``autrep.core_window``)
    smaller than n is read there, by the walk of its family (``_Family``)
    on that window, and repeated out: its first H rows, then its last L rows
    shifted by L, 2L, ... (``_repeated``).  The core window is aligned for
    every atom, so no read there raises.
    """

    def __init__(self, env: Environment, n: int, family: Optional[_Family] = None):
        self.env, self.n, self.memo = env, n, {}
        self.family = family or _Family(env)
        self.family.walks[n] = weakref.ref(self)
        self.cores = {}

    def lookup(self, word: Token, inv: bool = False) -> Optional[Pairs]:
        """The rows of (word, inv) this walk holds, or None."""
        return self.memo.get((id(word), inv), (word, None))[1]

    def seed(self, word: Token, rows: Pairs) -> None:
        """Hold ``rows`` as the reading of word, unless one is held already."""
        self.memo.setdefault((id(word), False), (word, rows))

    def walk(self, word: Token, inv: bool = False) -> Pairs:
        if (hit := self.lookup(word, inv)) is not None:
            return hit
        if isinstance(word, Named):
            try:
                aut = self.env[word.name]
            except KeyError:
                raise WordError(f"unresolved name {word.name!r}") from None
            out = window_pairs(invert_aut(aut) if inv else aut, self.n)
        else:
            self._check(word, inv)
            letters = list(map(self._letter, *_letters(word, inv)))
            out = reduce(pairs_product, letters) if letters else identity_pairs(self.n)
        self.memo[id(word), inv] = word, out
        return out

    def _check(self, word: Token, inv: bool) -> None:
        """Raise the first error the tree reading of (word, inv) meets, if any:
        none where every atom word names resolves, is aligned on n and carries
        its inverse.  Else the tree is walked with no product, each (token,
        inverted) pair once: a name looked up, inverted, then read on its
        window; a product's factors in order (reversed when inverted); a
        conjugate's h, h^-1, then g; a token of no known kind raises there.
        So an inverted claimed atom is refused even where free reduction
        would cancel it, and one never inverted is read by the rules.
        """
        atoms = self.family.atoms(word)
        if atoms is not None and _aligned(atoms, (self.n,)) and not any(map(is_claimed, atoms)):
            return
        seen = set()

        def visit(t: Token, inv: bool) -> None:
            if (id(t), inv) in seen or self.lookup(t, inv) is not None:
                return
            seen.add((id(t), inv))
            if isinstance(t, Named):
                self.walk(t, inv)
            elif isinstance(t, (Inverse, Power)):
                visit(t.inner, not inv if isinstance(t, Inverse) else inv != (t.exponent < 0))
            elif isinstance(t, Conj):  # (h g h^-1)^-1 = h g^-1 h^-1
                for x, i in ((t.h, False), (t.h, True), (t.g, inv)):
                    visit(x, i)
            elif isinstance(t, Product):
                for f in reversed(t.factors) if inv else t.factors:
                    visit(f, inv)
            else:
                raise WordError(f"unknown token {t!r}")

        visit(word, inv)

    def _letter(self, token: Token, e: int) -> Pairs:
        """A letter's rows: token's reading (``_subword``) to the |e|."""
        if e == 1 or e == -1:
            return self._subword(token, e < 0)
        hit = self.memo.get((id(token), e))
        if hit is None:
            hit = self.memo[id(token), e] = token, pairs_power(self._subword(token, e < 0), abs(e))
        return hit[1]

    def _subword(self, token: Token, inv: bool) -> Pairs:
        """token's reading, on its core window where that is smaller than n
        (``_Family.core``)."""
        if isinstance(token, Named) or self.lookup(token, inv) is not None:
            return self.walk(token, inv)
        core = self.family.core(token, self.n)
        if core is None:
            return self.walk(token, inv)
        walk = self.cores.get(core[0])
        if walk is None:
            walk = self.cores[core[0]] = self.family.walk(core[0])
        rows = _repeated(walk.walk(token, inv), *core, self.n)
        self.memo[id(token), inv] = token, rows
        return rows


def _letters(word: Token, inv: bool) -> tuple[list[Token], list[int]]:
    """The free-reduced letters of a word, read inverted or not, as their
    tokens and exponents.

    A conjugate ``Conj(g, h)`` to the e is h, g^e, h^-1; ``Power`` and
    ``Inverse`` go into the exponent; an inverted product is its factors
    reversed, each inverted; any other token (a name, a product inside a
    product or a conjugate) is a letter, and so is a conjugate read as a
    conjugator, which read on both sides would make a conjugate nested d
    deep 2^(d + 1) - 1 letters.  A letter on the token of the one before
    it, the same object or a name equal to it, merges with it, and a zero
    exponent drops.
    """
    out: tuple[list[Token], list[int]] = ([], [])
    sign = -1 if inv else 1
    if type(word) is Product:
        for f in reversed(word.factors) if inv else word.factors:
            _add_letter(f, sign, *out)
    else:
        _add_letter(word, sign, *out)
    return out


def _add_letter(t: Token, e: int, tokens: list, exps: list, conjugator: bool = False) -> None:
    kind = type(t)
    while e and (kind is Inverse or kind is Power):
        t, e = t.inner, -e if kind is Inverse else e * t.exponent
        kind = type(t)
    if not e:
        return
    if kind is Conj and not conjugator:
        _add_letter(t.h, 1, tokens, exps, True)
        _add_letter(t.g, e, tokens, exps)
        _add_letter(t.h, -1, tokens, exps, True)
    elif tokens and (tokens[-1] is t or kind is Named and tokens[-1] == t):
        # an environment binds each name once, so equal names are one atom
        exps[-1] += e
        if not exps[-1]:
            tokens.pop()
            exps.pop()
    else:
        tokens.append(t)
        exps.append(e)


def word_names(word: Token) -> frozenset[str]:
    """The names word's atoms go by, read once per token object and kept in
    its instance dict, outside the dataclass fields (as ``IntMatrix`` keeps
    its row pairs); ``WordError`` at the first token of no known kind."""
    if not isinstance(word, (Named, Inverse, Power, Conj, Product)):
        raise WordError(f"unknown token {word!r}")
    names = word.__dict__.get("_names")
    if names is None:
        if isinstance(word, Named):
            names = frozenset((word.name,))
        elif isinstance(word, (Inverse, Power)):
            names = word_names(word.inner)
        elif isinstance(word, Conj):
            names = word_names(word.g) | word_names(word.h)
        else:
            names = frozenset().union(*map(word_names, word.factors))
        word.__dict__["_names"] = names
    return names


def named_atoms(env: Environment, *words: Token) -> Optional[list[RepAut]]:
    """The atoms the words name over env; None for a token of no known kind,
    or when a word names an atom env lacks."""
    try:
        names = frozenset().union(*map(word_names, words))
    except WordError:
        return None
    return [env[name] for name in names] if names <= env.keys() else None


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


def _first_difference(got: Pairs, want: Pairs) -> str:
    """The first entry, in row-major order, where two unequal windows of
    one size differ: the first unequal row, at the least column where the
    two rows' entries differ."""
    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    a, b = dict(got[i]), dict(want[i])
    j = min(c for c in a.keys() | b.keys() if a.get(c, 0) != b.get(c, 0))
    return f"entry ({i},{j}): got {_shown(a.get(j, 0))}, expected {_shown(b.get(j, 0))}"


def verify_certificate(cert: Certificate, walks: Optional[dict] = None) -> VerifyResult:
    """Recheck a certificate; never consults anything outside its fields.

    An identity or order claim on a window that ``autrep.core_window``
    reduces is checked once on the core window, and the verdict is reported
    for every window it stands for.  Identity, order and sum claims compare
    row pairs (``_Rows``, whose one reading raises a defective word's first
    error in the tree's order), so no window is made dense.  When they check
    more than one window size m (the core window, or the window itself), and
    every atom of the claim is aligned on each, the words are walked once,
    on the largest m, and each smaller m's walk is seeded with their first
    m rows, which are window m (``autrep.window_pairs``).  An action claim
    applies the word's rows to its vector, chunk by chunk on the core window
    of a reduced window (``_check_action``).  A claimed ``target_aut`` must
    also be shown unimodular (``_claimed_target``).

    ``walks``, when given, keeps one ``_Rows`` walk per (window,
    environment mapping) (``_walk``); ``verify_chain`` shares it between
    the certificates of a chain, so what their words share is walked once.
    Without it, each walk is dropped after its check, except that the
    windows of an action claim share theirs.
    """
    if cert.kind == ORDER and (cert.order is None or cert.order < 1):
        raise ValidationError("order certificate needs a positive order")
    if cert.kind == WINDOW_SUM and (not cert.summand_words or cert.target_matrix is None):
        raise ValidationError("window-sum certificate needs summands and a target")
    atoms = _claim_atoms(cert)
    split = head_and_period(atoms) if atoms is not None and _reducible(cert) else None
    reduced, sizes = {}, set()
    for n in cert.windows:
        r = reduced[n] = core_window(split, n)
        sizes.add(n if r is None else r[0])
    big = None
    if cert.kind == ACTION_ON_VECTOR:
        walks = {} if walks is None else walks  # one walk per core window for every chunk
    elif len(sizes) > 1 and atoms and _aligned(atoms, sizes):
        big = _walk(walks, cert.environment, max(sizes))
    done: dict[int, tuple[bool, str]] = {}
    pushed: dict[tuple[int, ...], tuple[int, ...]] = {}
    lines: list[str] = []
    ok = True
    for n in cert.windows:
        if cert.kind == ACTION_ON_VECTOR:
            holds, detail = _check_action(cert, n, reduced[n], pushed, walks)
        else:
            m = n if reduced[n] is None else reduced[n][0]
            if m not in done:
                walk = _walk(walks, cert.environment, m)
                if big is not None and big is not walk:
                    for word in cert.summand_words if cert.kind == WINDOW_SUM else (cert.word,):
                        walk.seed(word, big.walk(word)[:m])
                done[m] = _CHECKS[cert.kind](cert, walk)
            holds, detail = done[m]
        ok = ok and holds
        lines.append(f"window {n}: {detail}")
    if ok and cert.kind == WINDOW_IDENTITY and is_claimed(cert.target_aut):
        broken = _claimed_target(cert.target_aut, done)
        if broken is not None:
            ok = False
            lines.append(f"target: {broken}")
    return VerifyResult(ok, tuple(lines))


def _aligned(atoms: list[RepAut], sizes: Iterable[int]) -> bool:
    """Whether each atom is aligned on every window size."""
    try:
        for aut in atoms:
            for m in sizes:
                _check_window(aut, m)
    except AlignmentError:
        return False
    return True


def _walk(walks: Optional[dict], env: Environment, n: int) -> _Rows:
    """The walk in ``walks`` on window n over env, keyed by n and env's id
    (the walk keeps env), made on first use in the family of the walks over
    env it holds (``_Family``); a new walk for no ``walks``.  env may gain
    names while its walks live, but must not rebind one."""
    if walks is None:
        return _Rows(env, n)
    walk = walks.get((n, id(env)))
    if walk is None:
        family = next((w.family for w in walks.values() if w.env is env), None)
        walk = walks[n, id(env)] = _Rows(env, n) if family is None else family.walk(n)
    return walk


def _repeated(rows: Pairs, core: int, period: int, n: int) -> Pairs:
    """Window n of a word from its window ``core``, as ``autrep.core_window``
    gives it with ``period``: the core's rows, then its last period rows
    shifted by period, 2 period, ... (identity rows for period 0), the rule
    ``window_pairs`` applies to an eventually uniform atom."""
    if not period:
        return rows + identity_pairs(n)[core:]
    block = rows[core - period :]
    shifted = (tuple([(c + s, v) for c, v in row]) for s in range(period, n - core + period, period)
               for row in block)
    return rows + tuple(shifted)


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
    atoms = _claim_atoms(cert) if cert.kind == WINDOW_IDENTITY and _reducible(cert) else None
    split = None if atoms is None else head_and_period(atoms)
    if split is None:
        return False
    core = (sum(split), split[1])
    return any(core_window(split, n) == core for n in cert.windows)


def _claim_atoms(cert: Certificate) -> Optional[list[RepAut]]:
    """The atoms a claim's words name (its summands' in a window-sum claim),
    with the ``target_aut`` of an identity claim; None when a word names a
    missing atom."""
    tokens = cert.summand_words if cert.kind == WINDOW_SUM else (cert.word,)
    atoms = named_atoms(cert.environment, *tokens)
    if atoms is None:
        return None
    return atoms + ([cert.target_aut] if cert.kind == WINDOW_IDENTITY and cert.target_aut else [])


def _reducible(cert: Certificate) -> bool:
    """Whether ``core_window`` may reduce the windows: not for sums or ``target_matrix``."""
    return cert.kind != WINDOW_SUM and (cert.kind != WINDOW_IDENTITY or cert.target_aut is not None)


def _check_identity(cert: Certificate, walk: _Rows) -> tuple[bool, str]:
    got = walk.walk(cert.word)
    if cert.target_aut is not None:
        want = window_pairs(cert.target_aut, walk.n)
    elif cert.target_matrix is not None:
        want = _extend(cert.target_matrix, walk.n, fill_identity=True)
    else:
        raise ValidationError("window-identity certificate lacks a target")
    if got == want:
        return True, "identity holds"
    return False, f"MISMATCH at {_first_difference(got, want)}"


def _check_order(cert: Certificate, walk: _Rows) -> tuple[bool, str]:
    k = cert.order
    w, eye = walk.walk(cert.word), identity_pairs(walk.n)
    if pairs_power(w, k) != eye:
        return False, f"word^{k} is not the identity"
    for p in factorize(k):
        if pairs_power(w, k // p) == eye:
            return False, f"order divides {k // p}, not exactly {k}"
    return True, f"order is exactly {k}"


def _check_action(
    cert: Certificate,
    n: int,
    reduced: Optional[tuple[int, int]],
    pushed: dict[tuple[int, ...], tuple[int, ...]],
    walks: dict,
) -> tuple[bool, str]:
    """Apply the word's rows on window n to the vector, or chunk by chunk
    on its core window when ``reduced`` gives one with its period
    (``_push_chunks``), each distinct nonzero chunk once per certificate
    (``pushed`` is shared by its windows).

    The rows are the word's walk in ``walks`` (``_Rows``, whose one reading
    raises a defective word's first error in the tree's order), as every
    other claim reads them, and the image is compared with the target over
    all n coordinates.
    """
    if cert.vector is None or cert.target_vector is None:
        raise ValidationError("action certificate needs vector and target_vector")

    def push(m: int, v: Sequence[int]) -> tuple[int, ...]:
        v = _pad(v, m)
        return apply_pairs(_walk(walks, cert.environment, m).walk(cert.word), v)

    if reduced is None:
        got = push(n, cert.vector)
    else:

        def image(chunk: tuple[int, ...]) -> tuple[int, ...]:
            if any(chunk) and chunk not in pushed:
                pushed[chunk] = push(reduced[0], chunk)
            return pushed.get(chunk, chunk)

        got = _push_chunks(image, *reduced, _pad(cert.vector, n))
    want = _pad(cert.target_vector, n)
    if got == want:
        return True, "action holds"
    k = next(i for i in range(n) if got[i] != want[i])
    return False, f"MISMATCH at coordinate {k}: got {_shown(got[k])}, expected {_shown(want[k])}"


def _push_chunks(image, core: int, period: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """The image of v under a word whose window len(v) is its core window
    followed by copies of the core window's last period block (identity
    blocks for period 0), ``autrep.core_window``; image(chunk) is the image
    of a core-sized chunk on the core window.

    So the first core coordinates are pushed on the core window, and each
    later period chunk that holds a nonzero coordinate is pushed in that
    last block; every other coordinate stays.
    """
    out = list(image(v[:core]) + v[core:])
    if period:
        lead = (0,) * (core - period)
        for s in nonzero_blocks(v, core, period):
            out[s : s + period] = image(lead + v[s : s + period])[-period:]
    return tuple(out)


def _check_sum(cert: Certificate, walk: _Rows) -> tuple[bool, str]:
    total = reduce(pairs_sum, map(walk.walk, cert.summand_words))
    want = _extend(cert.target_matrix, walk.n)
    if total == want:
        return True, "sum matches target"
    return False, f"MISMATCH at {_first_difference(total, want)}"


_CHECKS = {WINDOW_IDENTITY: _check_identity, ORDER: _check_order, WINDOW_SUM: _check_sum}


def _extend(m: IntMatrix, n: int, fill_identity: bool = False) -> Pairs:
    """The row pairs of a square matrix extended to size n, padded with
    zeros or the identity.

    Sum targets extend by zero (the endomorphism vanishes past its data);
    identity targets extend by the identity (the automorphism fixes later
    coordinates).
    """
    if m.rows > n:
        raise DimensionError(f"target of size {m.rows} exceeds window {n}")
    if not m.is_square:
        raise DimensionError(f"target of {m.rows}x{m.cols} is not square")
    tail = (((i, 1),) if fill_identity else () for i in range(m.rows, n))
    return m.pairs + tuple(tail)
