"""Reference implementations the library no longer needs, kept as test
oracles: the row-reduction inverse that the 2-adic inverse replaced, the
Smith-form solver of ``M x = target``, re-chunking of an eventually
uniform automorphism to a larger block size, the per-entry integer-list
check that the parser's one-pass type check replaced, the trial division
that Miller-Rabin replaced, the entry-by-entry product, 2-adic elimination,
matrix text and ``str`` that the kernels visiting only nonzero entries
replaced, the transpose no library code needs, the divisor scan that
capping each prime of g replaced in ``classify.common_lambda_level``,
the dense windows, dense word evaluation and row-major mismatch scan that
the row-pair walk replaced, the chain encoding in one pass that
encoding each environment once replaced, the graded multipliers by trial
division that the prime table and each block's increment table replaced,
the window-by-window check that one walk per certificate replaced, and the
general pipeline's psi, phi_n and ``final`` by ``compose`` and ``invert``,
which walked words replaced, with ``compose_all``, a product by ``compose``
that no library code needs, and the chain reader that read every copy of an
environment and of a top-level word, which reading each run of copies once
replaced, and the Smith form that updated dense u and v at every step, with
the basis completion that inverted u and then the completed matrix afresh,
which replaying one record of the elimination replaced."""

import json
from functools import reduce
from math import isqrt
from operator import add
from typing import Any, Iterator, Mapping, Optional, Sequence

from infrank.autrep import (
    BlockSpec,
    EventuallyUniform,
    Finitary,
    _check_window,
    compose,
    identity_aut,
    invert,
)
from infrank.classify import RuleBased
from infrank.errors import AlignmentError, DimensionError, ParseError, ValidationError, WordError
from infrank.intmat import IntMatrix, _min_abs_pivot, identity_rows, snf
from infrank.serialize import (
    _int_list,
    _matrix,
    _need,
    _typed,
    aut_from_obj,
    aut_to_obj,
    cert_to_obj,
    word_from_obj,
    word_to_obj,
)
from infrank.witness import ChainStep, WitnessChain
from infrank.words import (
    ORDER,
    WINDOW_IDENTITY,
    WINDOW_SUM,
    Conj,
    Inverse,
    Named,
    Power,
    Certificate,
    Product,
    VerifyResult,
    _shown,
)


def row_reduction_inverse(m: IntMatrix) -> Optional[IntMatrix]:
    """The integer inverse of m, or None unless m is square and unimodular.

    Row operations on ``[A | I]`` only, so the right half U always satisfies
    ``U * A`` = the left half.  Column t is first reduced by Euclid's
    algorithm over the rows not yet used as pivots, leaving one nonzero entry
    there; earlier columns are already cleared, so the pivots are the
    diagonal of a triangular matrix whose determinant is +-det(A).  A pivot
    other than +-1, or a column with no nonzero entry left, therefore proves
    A is not unimodular.  A +-1 pivot clears its column in every other row
    exactly (Gauss-Jordan), and at the end the left half is I and U = A^-1.
    """
    if not m.is_square:
        return None
    n = m.rows
    rows = [list(row) + [0] * n for row in m.data]
    for i in range(n):
        rows[i][n + i] = 1
    for t in range(n):
        live = [i for i in range(t, n) if rows[i][t]]
        if not live:
            return None
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][t]))
            prow = rows[p]
            pv = prow[t]
            nz = [(c, v) for c, v in enumerate(prow[t:], t) if v]
            rest = []
            for i in live:
                if i != p:
                    row = rows[i]
                    q = row[t] // pv
                    for c, v in nz:
                        row[c] -= q * v
                    if row[t]:
                        rest.append(i)
            rest.append(p)
            live = rest
        p = live[0]
        if rows[p][t] not in (1, -1):
            return None
        if rows[p][t] == -1:
            rows[p] = [-v for v in rows[p]]
        rows[t], rows[p] = rows[p], rows[t]
        nz = [(c, v) for c, v in enumerate(rows[t][t:], t) if v]
        for i in range(n):
            row = rows[i]
            q = row[t]
            if q and i != t:
                for c, v in nz:
                    row[c] -= q * v
    return IntMatrix.from_rows(row[n:] for row in rows)


def eager_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(u, d, v) with ``u * m * v == d`` in Smith form: the elimination of
    ``intmat.snf``, with the same pivots, applying each operation to dense
    u and v as it goes."""
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = identity_rows(rows)
    v = identity_rows(cols)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a + v:
                row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        if q:
            for x in (a, u):
                x[i] = [p - q * r for p, r in zip(x[i], x[j])]

    def col_sub(i, j, q):
        if q:
            for row in a + v:
                row[i] -= q * row[j]

    t, lim = 0, min(rows, cols)
    while t < lim:
        piv = _min_abs_pivot(a, t, rows, cols)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
            if not any(a[i][t] for i in range(t + 1, rows)) and not any(a[t][t + 1 :]):
                break
            piv = _min_abs_pivot(a, t, rows, cols)
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
        p = a[t][t]
        offender = next(
            (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1 :])), None
        )
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1
    for i in range(lim):
        if a[i][i] < 0:
            for row in a + v:
                row[i] = -row[i]
    return tuple(IntMatrix.from_rows(x) for x in (u, a, v))


def eager_complete_to_basis(m: IntMatrix) -> Optional[IntMatrix]:
    """m's columns completed by the trailing columns of u^-1, with u from
    ``eager_snf`` inverted by row reduction, and the result accepted by its
    own inverse; None for a column set that is not unimodular."""
    n, k = m.rows, m.cols
    u, d, _ = eager_snf(m)
    if k > n or any(d.data[i][i] != 1 for i in range(k)):
        return None
    if k == n:
        return m
    out = m.hstack(row_reduction_inverse(u).submatrix(0, n, k, n))
    return out if row_reduction_inverse(out) is not None else None


def solve_columns(m: IntMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer solution x of ``m @ x == target``, or None if there is none."""
    if len(target) != m.rows:
        raise DimensionError("target length does not match row count")
    res = snf(m)
    w = res.u.apply(target)
    diag = res.diagonal()
    y = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % d:
                return None
            if i < m.cols:
                y[i] = w[i] // d
    return res.v.apply(y)


def reblock(aut: EventuallyUniform, new_d: int) -> EventuallyUniform:
    """The same automorphism re-described with blocks of size ``new_d``."""
    if new_d % aut.d:
        raise AlignmentError(f"new block size {new_d} not a multiple of {aut.d}")
    head = aut.window_size + (-aut.window_size) % new_d
    n = head + new_d
    w, w_inv = dense_window(aut, n), dense_window(invert(aut), n)
    block = w.submatrix(head, n, head, n)
    # window n is block diagonal at head, so a trailing head block that equals
    # the block and is block diagonal within the head repeats it
    while head and w.top_left(head) == IntMatrix.block_diag([w.top_left(head - new_d), block]):
        head -= new_d
    spec = BlockSpec(block, w_inv.submatrix(n - new_d, n, n - new_d, n))
    return EventuallyUniform(w.top_left(head), w_inv.top_left(head), spec)


def compose_all(*auts):
    """The product of auts, left to right, by ``compose``."""
    return reduce(compose, auts, identity_aut())


def is_int_list(obj: Any) -> bool:
    """A list whose entries are all ints and none a bool, checked entry by entry."""
    return isinstance(obj, list) and not any(
        not isinstance(x, int) or isinstance(x, bool) for x in obj
    )


def product_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], cols: int) -> Iterator[list[int]]:
    """The rows of ``a * b`` one by one, every entry of a and b visited."""
    sparse = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    for row in a:
        acc = [0] * cols
        for x, pairs in zip(row, sparse):
            if x:
                if x == 1:
                    for c, y in pairs:
                        acc[c] += y
                elif x == -1:
                    for c, y in pairs:
                        acc[c] -= y
                else:
                    for c, y in pairs:
                        acc[c] += x * y
        yield acc


def dense_window(aut, n: int) -> IntMatrix:
    """The n x n window of aut written entry by entry into identity rows:
    a finitary atom's support entries, an eventually uniform atom's head and
    blocks along the diagonal, a graded atom's subdiagonal increments, each
    product of the ``sieve_multipliers`` taken afresh."""
    _check_window(aut, n)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if isinstance(aut, Finitary):
        for a, i in enumerate(aut.support):
            for b, j in enumerate(aut.support):
                rows[i][j] = aut.matrix.data[a][b]
    elif isinstance(aut, EventuallyUniform):
        at = 0
        for blk in [aut.window] + [aut.block.matrix] * ((n - aut.window_size) // aut.d):
            for a in range(blk.rows):
                for b in range(blk.cols):
                    rows[at + a][at + b] = blk.data[a][b]
            at += blk.rows
    else:
        mults = sieve_multipliers(aut.prefix, aut.excluded, n // 2)
        for pair in range(n // 2):
            c = 1
            for i in range(pair + 1):
                c *= mults[i]
            rows[2 * pair + 1][2 * pair] = -c if aut.negated else c
    return IntMatrix.from_rows(rows)


def evaluate_word(word, env: Mapping, n: int) -> IntMatrix:
    """The n x n window of a word over env: dense windows of the atoms (of
    the inverted atom where the word inverts it), multiplied left to right
    by ``product_rows``, a power as repeated products, nothing remembered."""
    one = IntMatrix.identity(n)

    def times(x: IntMatrix, y: IntMatrix) -> IntMatrix:
        return IntMatrix.from_rows(product_rows(x.data, y.data, n))

    def walk(w, inv: bool) -> IntMatrix:
        if isinstance(w, Named):
            if w.name not in env:
                raise WordError(f"unresolved name {w.name!r}")
            aut = env[w.name]
            return dense_window(invert(aut) if inv else aut, n)
        if isinstance(w, Inverse):
            return walk(w.inner, not inv)
        if isinstance(w, Power):
            inner, out = walk(w.inner, inv != (w.exponent < 0)), one
            for _ in range(abs(w.exponent)):
                out = times(out, inner)
            return out
        if isinstance(w, Conj):
            return times(times(walk(w.h, False), walk(w.g, inv)), walk(w.h, True))
        out = one
        for f in reversed(w.factors) if inv else w.factors:
            out = times(out, walk(f, inv))
        return out

    return walk(word, False)


def first_difference(a: IntMatrix, b: IntMatrix) -> str:
    """The first entry, scanning rows then columns, where two matrices of
    one shape differ, as a MISMATCH line names it."""
    for i in range(a.rows):
        for j in range(a.cols):
            x, y = a.data[i][j], b.data[i][j]
            if x != y:
                return f"entry ({i},{j}): got {_shown(x)}, expected {_shown(y)}"
    return "no difference"


def inverse_mod_2k(a: Sequence[Sequence[int]], k: int) -> Optional[list[list[int]]]:
    """A^-1 mod 2^k in symmetric residues, or None when det is even or not
    +-1 mod 2^k: Gauss-Jordan on ``[A | I]`` that scans every row for the
    pivot and the rows to clear, and every column of the pivot row."""
    n, size = len(a), 1 << k
    half, mask = size >> 1, size - 1
    rows = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(a)]
    det = 1
    for t in range(n):
        p = None
        for i in range(t, n):
            v = rows[i][t]
            if v & 1 and (p is None or v in (1, -1)):
                p = i
                if v in (1, -1):
                    break
        if p is None:
            return None
        if p != t:
            rows[p], rows[t], det = rows[t], rows[p], -det
        prow = rows[t]
        pv = ((prow[t] + half) & mask) - half
        det = det * pv & mask
        u = pv if pv in (1, -1) else pow(pv, -1, size)
        prow[t] = 1
        nz = []
        for c in range(t + 1, 2 * n):
            if prow[c]:
                prow[c] = v = ((prow[c] * u + half) & mask) - half
                if v:
                    nz.append((c, v))
        for i, row in enumerate(rows):
            q = row[t]
            if q and i != t:
                q = ((q + half) & mask) - half
                row[t] = 0
                for c, v in nz:
                    row[c] -= q * v
    if det != 1 and det != mask:
        return None
    return [[((v + half) & mask) - half if v else 0 for v in row[n:]] for row in rows]


def format_matrix_text(m: IntMatrix) -> str:
    """The matrix text format with ``str`` called on every entry."""
    lines = [f"{m.rows} {m.cols}"]
    lines += [" ".join(str(x) for x in row) for row in m.data]
    return "\n".join(lines) + "\n"


def transpose(m: IntMatrix) -> IntMatrix:
    """The transpose; a matrix with no rows is its own."""
    return IntMatrix._trusted(tuple(zip(*m.data))) if m.data else m


def matrix_str(m: IntMatrix) -> str:
    """``str(m)`` with every entry converted twice, once for the column
    widths and once to be padded."""
    if not m.data:
        return "[]"
    widths = [max(len(str(row[j])) for row in m.data) for j in range(m.cols)]
    return "\n".join(" ".join(str(x).rjust(w) for x, w in zip(row, widths)) for row in m.data)


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    r = isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


def sieve_multipliers(prefix: Sequence[int], excluded, count: int) -> list[int]:
    """The first ``count`` multipliers of the graded rule by trial division:
    the prefix, then increasing primes outside the exclusions and the
    prefix's prime divisors."""
    skip = set(excluded) | {
        p for m in prefix for p in range(2, m + 1) if m % p == 0 and trial_division_is_prime(p)
    }
    out = list(prefix[:count])
    c = 2
    while len(out) < count:
        if c not in skip and trial_division_is_prime(c):
            out.append(c)
        c += 1
    return out


def divisor_scan_level(g: int, rules: Sequence[RuleBased]) -> Optional[int]:
    """The largest divisor m >= 2 of g that every rule admits, or None, by
    trying the divisors of g (trial division to its square root) from the
    largest down."""
    small = [f for f in range(1, isqrt(g) + 1) if g % f == 0]
    for m in sorted({*small, *(g // f for f in small)}, reverse=True):
        if m >= 2 and all(r.member(m) for r in rules):
            return m
    return None


def aut_power(aut, e: int):
    """aut^e by ``compose``, one factor at a time, and ``invert``."""
    base, out = (invert(aut) if e < 0 else aut), identity_aut()
    for _ in range(abs(e)):
        out = compose(out, base)
    return out


def general_chain_values(chain, pair: tuple[int, int]):
    """psi, the product of the conjugates h phi h^-1, phi_n = (lambda_n
    psi)^n for each n of the pair, and final = phi_1^a phi_2^b, as the
    general pipeline built them from its atoms with ``compose`` and
    ``invert``: each h is the conjugator of a factor of the chain's first
    word, lambda_n the chain's atom ``lam{n}``."""
    word, env = chain.steps[0].word, chain.steps[0].certificates[0].environment
    factors = word.factors if isinstance(word, Product) else (word,)
    psi = compose_all(*(compose_all(env[f.h.name], env["phi"], invert(env[f.h.name]))
                        for f in factors))
    phis = [aut_power(compose(env[f"lam{n}"], psi), n) for n in pair]
    a, b = (factor.exponent for factor in chain.steps[3].word.factors)
    return psi, phis, compose(aut_power(phis[0], a), aut_power(phis[1], b))


def chain_document(chain) -> str:
    """The chain's canonical document in one ``json.dumps`` pass, every
    certificate restating its environment."""
    steps = [
        {"name": step.name, "note": step.note, "word": word_to_obj(step.word),
         "certificates": [cert_to_obj(cert) for cert in step.certificates]}
        for step in chain.steps
    ]
    doc = {"format_version": 1, "kind": "chain", "level": chain.level,
           "scope_note": chain.scope_note, "final": aut_to_obj(chain.final), "steps": steps}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_chain(text: str) -> WitnessChain:
    """``parse_chain`` of a document whose header is intact, reading every
    environment and every top-level word where it stands, from one
    ``json.loads``: no copy reuses what an earlier copy read."""
    obj, table = json.loads(text), {}

    def env(env_obj: Any, path: str) -> dict:
        if not isinstance(env_obj, dict):
            raise ParseError(path, "expected an object of named automorphisms")
        return {name: aut_from_obj(a, f"{path}.{name}", table) for name, a in env_obj.items()}

    def word(word_obj: Any, path: str):
        return word_from_obj(word_obj, path, table=table)

    def cert(c: Any, path: str) -> Certificate:
        claim = _need(c, "claim", path)
        fields: dict[str, Any] = {"windows": _int_list(_need(c, "windows", path), f"{path}.windows")}
        fields["environment"] = env(c.get("env", {}), f"{path}.env")
        if "word" in c:
            fields["word"] = word(c["word"], f"{path}.word")
        if "target_aut" in c:
            fields["target_aut"] = aut_from_obj(c["target_aut"], f"{path}.target_aut", table, True)
        if "target_matrix" in c:
            fields["target_matrix"] = _matrix(c["target_matrix"], f"{path}.target_matrix")
        for key in ("vector", "target_vector"):
            if key in c:
                fields[key] = _int_list(c[key], f"{path}.{key}")
        if "order" in c:
            fields["order"] = _typed(c["order"], int, f"{path}.order")
        if "summands" in c:
            summands = _typed(c["summands"], list, f"{path}.summands")
            fields["summand_words"] = tuple(
                word(w, f"{path}.summands[{i}]") for i, w in enumerate(summands))
        try:
            return Certificate(kind=claim, **fields)
        except ValidationError as exc:
            raise ParseError(path, str(exc)) from None

    level = _typed(_need(obj, "level", "$"), int, "$.level")
    steps = []
    for i, step in enumerate(_typed(_need(obj, "steps", "$"), list, "$.steps")):
        path = f"$.steps[{i}]"
        certs = _typed(_need(step, "certificates", path), list, f"{path}.certificates")
        name = _typed(_need(step, "name", path), str, f"{path}.name")
        step_word = word(_need(step, "word", path), f"{path}.word")
        read = tuple(cert(c, f"{path}.certificates[{j}]") for j, c in enumerate(certs))
        steps.append(ChainStep(name, step_word, read, _typed(step.get("note", ""), str, f"{path}.note")))
    final = aut_from_obj(_need(obj, "final", "$"), "$.final", table, True)
    return WitnessChain(tuple(steps), final, level, _typed(_need(obj, "scope_note", "$"), str, "$.scope_note"))


def verify_per_window(cert) -> VerifyResult:
    """What ``verify_certificate`` gives for an identity, order or sum claim,
    checked one window at a time on the dense windows of ``evaluate_word``:
    no core window, and nothing shared between windows.  Claimed targets,
    whose extra ``target:`` line this leaves out, are not covered."""
    lines, ok = [], True
    for n in cert.windows:
        holds, detail = _PER_WINDOW[cert.kind](cert, n)
        ok = ok and holds
        lines.append(f"window {n}: {detail}")
    return VerifyResult(ok, tuple(lines))


def _extended(m: IntMatrix, n: int, diagonal: int) -> IntMatrix:
    """m padded to n x n, with ``diagonal`` on the padded diagonal."""
    if m.rows > n:
        raise DimensionError(f"target of size {m.rows} exceeds window {n}")
    if not m.is_square:
        raise DimensionError(f"target of {m.rows}x{m.cols} is not square")
    k = m.rows
    return IntMatrix.from_rows(
        [m.data[i][j] if i < k and j < k else diagonal * (i == j) for j in range(n)]
        for i in range(n)
    )


def _mismatch(got: IntMatrix, want: IntMatrix, holds: str) -> tuple[bool, str]:
    return (True, holds) if got == want else (False, f"MISMATCH at {first_difference(got, want)}")


def _identity_on(cert, n: int) -> tuple[bool, str]:
    got = evaluate_word(cert.word, cert.environment, n)
    if cert.target_aut is not None:
        want = dense_window(cert.target_aut, n)
    elif cert.target_matrix is not None:
        want = _extended(cert.target_matrix, n, 1)
    else:
        raise ValidationError("window-identity certificate lacks a target")
    return _mismatch(got, want, "identity holds")


def _order_on(cert, n: int) -> tuple[bool, str]:
    k = cert.order
    if k is None or k < 1:
        raise ValidationError("order certificate needs a positive order")
    w = evaluate_word(cert.word, cert.environment, n)

    def is_identity_power(e: int) -> bool:
        out = IntMatrix.identity(n)
        for _ in range(e):
            out = IntMatrix.from_rows(product_rows(out.data, w.data, n))
        return out == IntMatrix.identity(n)

    if not is_identity_power(k):
        return False, f"word^{k} is not the identity"
    for p in range(2, k + 1):
        if k % p == 0 and trial_division_is_prime(p) and is_identity_power(k // p):
            return False, f"order divides {k // p}, not exactly {k}"
    return True, f"order is exactly {k}"


def _sum_on(cert, n: int) -> tuple[bool, str]:
    if not cert.summand_words or cert.target_matrix is None:
        raise ValidationError("window-sum certificate needs summands and a target")
    total = reduce(add, (evaluate_word(w, cert.environment, n) for w in cert.summand_words))
    return _mismatch(total, _extended(cert.target_matrix, n, 0), "sum matches target")


_PER_WINDOW = {WINDOW_IDENTITY: _identity_on, ORDER: _order_on, WINDOW_SUM: _sum_on}
