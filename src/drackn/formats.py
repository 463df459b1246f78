"""Bit-exact text formats for covers, Seidel matrices, generalized Hadamard
matrices, and construction ingredients (form pencils, skew products, Latin
squares).

Every emitter produces one canonical rendering (header line, parameter line,
then matrix rows), and every parser reads exactly the declared number of rows
after the two header lines and ignores trailing content.  That makes emitted
payloads pipeable: a command may append report lines after the matrix block
without breaking a downstream parser.  The rows of every format are one
table of group element indices, read by ``_index_rows`` and written by
``_emit_rows``.  Only the two header lines are split off; rows as the
emitters write them (single spaces, one-digit coordinates, line feeds) are
sliced from the text and read as one byte array, and other spacing, line
ends or tokens are split into lines and read token by token, with the same
result or the same error.

A cover of K_n needs a deck group of order r <= n - 1, and the constructions
build at most ``covers._MAX_FIBRES`` = 2048 fibres.  The parsers use
the same number as their size budget: a cover or GH ``group=`` of larger
order, a Seidel ``r=`` or a LATIN field GF(2^t) above it, and a FORM or
SKEW header whose cover would have more fibres (p^m, 2^(t(d+1))), are
refused before any row is read or any table of the group is built (those
tables take O(r^2) memory); FORM and SKEW with the construction's own text.

Encodings:

* ``DRACKN-COVER v1`` — ``n=<int> group=<d1,d2,...>``; entries are ``.`` on
  the diagonal or comma-joined exponent tuples (``2`` for Z/3, ``1,0,1`` for
  (Z/2)^3).  The trivial group (a plain K_n) is written ``group=1`` with
  entries ``0``.
* ``SEIDEL v1`` — ``n=<int> r=<prime|generic>``; for prime r each entry is an
  integer k meaning zeta_r^k (r=2: 0 is +1, 1 is -1); for ``generic`` the
  entries are literal ``1`` / ``-1``.  Diagonal is ``.``.
* ``GH v1`` — ``n=<int> group=<d1,...>``; all n^2 entries are exponent
  tuples, no diagonal marker.
* ``FORM v1`` — ``p=<int> m=<int> s=<int>``, then s blocks of m rows of m
  integers: the alternating matrices of a form pencil, an (s m) x m table
  over Z/p (any integer is read mod p).
* ``SKEW v1`` — ``t=<int> d=<int>``, then the td x td table of the skew
  product on basis pairs: entry (a, b) is x^a * x^b in GF(2^(td)), written
  as its td polynomial coefficients over the fixed modulus ``gf.MODULI``,
  comma-joined, constant term first.
* ``LATIN v1`` — ``t=<int>``, then a 2^t x 2^t table of GF(2^t) elements,
  each its t comma-joined coefficients, constant term first.  Rows and
  columns follow the ``gf`` index order of GF(2^t).

The ``gf`` index of a GF(2^k) element is the (Z/2)^k element index of its
coefficient tuple, so SKEW and LATIN rows are tables over (Z/2)^(td) and
(Z/2)^t, read and written like a GH matrix's, and no field is built.

``emit_gram`` renders a line-set Gram matrix for display: one header line
``GRAM <label> n=... d=... alpha_sq=... field=...`` and then one line per
Gram row with space-separated entries.  The diagonal is ``1``.  An entry
G[u, v] = -S[u, v]/lam is one value when the entries are +-1 (``r=generic``
or r = 2) or lam is a surd (then S is +-1 whatever its root order, and an
entry reads ``1/5*sqrt(5)``); otherwise it is the comma-joined coefficient
list on 1, zeta, ..., zeta^(p-2), so a rational entry of a zeta_3 matrix
reads ``1/4,0``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat

from . import constructions, lines, np
from .arith import is_prime
from .covers import _MAX_FIBRES, ArcMatrix
from .errors import FormatError
from .groups import AbelianGroup
from .quadratic import QuadNum

COVER_TAG = "DRACKN-COVER v1"
SEIDEL_TAG = "SEIDEL v1"
GH_TAG = "GH v1"
FORM_TAG = "FORM v1"
SKEW_TAG = "SKEW v1"
LATIN_TAG = "LATIN v1"


# -- shared plumbing -----------------------------------------------------------


# The line boundaries of ``str.splitlines``: "\r\n" is one, and so is each of these.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_HEAD = re.compile(f"([^{_BREAKS}]*)(\r\n|[{_BREAKS}]|\\Z)([^{_BREAKS}]*)(\r\n|[{_BREAKS}]|\\Z)")


def _split_header(text: str, tag: str, keys: tuple[str, ...]) -> tuple[dict[str, str], str]:
    """Check the tag line, parse the key=value line, return (meta, body):
    body is the text after the parameter line, whose ``splitlines`` are the
    text's from the third on.  Only the two header lines are split here."""
    head = _HEAD.match(text)
    if not text:
        raise FormatError(f"empty input, expected header {tag!r}")
    if head[1].strip() != tag:
        raise FormatError(f"expected header {tag!r}, got {head[1].strip()!r}")
    if head.end(2) == len(text):
        raise FormatError(f"missing parameter line after {tag!r}")
    meta: dict[str, str] = {}
    for tok in head[3].split():
        key, eq, value = tok.partition("=")
        if not eq or not key or not value:
            raise FormatError(f"malformed parameter token {tok!r}")
        if key in meta:
            raise FormatError(f"duplicate parameter {key!r}")
        meta[key] = value
    if set(meta) != set(keys):
        raise FormatError(
            f"expected parameters {', '.join(keys)}; got {', '.join(sorted(meta)) or 'none'}"
        )
    return meta, text[head.end():]


def _int_of(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {text!r}") from None


def _take_rows(body: str, count: int, tag: str) -> list[str]:
    if count < 0:
        raise FormatError(f"{tag}: row count must be >= 0, got {count}")
    body = body.splitlines()
    if len(body) < count:
        raise FormatError(f"{tag}: expected {count} matrix rows, found {len(body)}")
    rows = body[:count]
    for i, row in enumerate(rows):
        if not row.strip():
            raise FormatError(f"{tag}: matrix row {i + 1} is blank")
    return rows


def _split_row(line: str, n: int, where: str) -> list[str]:
    toks = line.split()
    if len(toks) != n:
        raise FormatError(f"{where}: expected {n} entries, got {len(toks)}")
    return toks


def _emit_group(group: AbelianGroup) -> str:
    return ",".join(str(d) for d in group.orders) if group.orders else "1"


def _parse_group(text: str) -> AbelianGroup:
    if text == "1":
        return AbelianGroup(())
    parts = text.split(",")
    orders = tuple(_int_of(p, "group order") for p in parts)
    if any(d < 2 for d in orders):
        raise FormatError(f"cyclic factor orders must be >= 2, got {text!r}")
    order = 1
    for d in orders:  # every factor is >= 2, so this stops within 12 factors
        order *= d
        _check_order(order, f"the order of group={text}")
    return AbelianGroup(orders)


def _check_order(order: int, what: str) -> None:
    """Refuse a deck group (or Seidel root order) above ``_MAX_FIBRES``."""
    if order > _MAX_FIBRES:
        raise FormatError(f"{what} is above the size limit of {_MAX_FIBRES}")


def _element_names(group: AbelianGroup) -> list[str]:
    """The canonical token of each element, in element index order."""
    return [",".join(str(x) for x in el) if el else "0" for el in group.elements()]


def _element_lookup(group: AbelianGroup) -> dict[str, int]:
    """Canonical token -> element index."""
    return {name: i for i, name in enumerate(_element_names(group))}


def _field(k: int) -> AbelianGroup:
    """GF(2^k) as (Z/2)^k, refused above the size limit: a ``gf`` index is
    the element index of its coefficient tuple."""
    _check_order(2 ** min(k, 12), f"the order of GF(2^{k})")  # min: no huge 2^k is built
    return AbelianGroup((2,) * k)


def _element_index(group: AbelianGroup, tok: str, where: str) -> int:
    if not group.orders:
        if tok != "0":
            raise FormatError(f"{where}: trivial-group entry must be 0, got {tok!r}")
        return 0
    el = tuple(_int_of(x, f"{where}: coordinate") for x in tok.split(","))
    if len(el) != group.rank:
        raise FormatError(
            f"{where}: element {tok!r} has {len(el)} coordinates, "
            f"group has {group.rank}"
        )
    if any(not 0 <= x < d for x, d in zip(el, group.orders)):
        raise FormatError(
            f"{where}: element {tok!r} out of range for orders {group.orders}"
        )
    return group.index(el)


def _index_rows(
    body: str, shape: tuple[int, int], tag: str, group, parse_entry=None, lookup=None, diagonal=True
) -> np.ndarray:
    """(rows, cols) index array of a block of ``group`` elements (canonical
    tokens: ``lookup`` if ``group`` is None), '.' exactly on the diagonal
    (read as -1) if ``diagonal``.  Canonical rows are read as one byte
    array, sliced from the body.  Otherwise the body is split into rows and
    all tokens go through the lookup in one pass; if that fails, row by row,
    and a row with any other token token by token, where
    ``parse_entry(tok, where)`` (default: ``_element_index``) reads an entry
    or raises the ``FormatError`` that names it."""
    rows, cols = shape
    parse_entry = parse_entry or partial(_element_index, group)
    if group is not None and max(group.orders, default=0) <= 10:
        index = _fixed_rows(body, shape, group.orders or (1,), diagonal)
        if index is not None:
            return index
    lines = _take_rows(body, rows, tag)
    lookup = {**(lookup or _element_lookup(group)), ".": -1 if diagonal else -2}
    split = [line.split() for line in lines]
    if all(len(toks) == cols for toks in split):
        flat = map(lookup.get, chain.from_iterable(split), repeat(-2))
        index = np.fromiter(flat, dtype=np.int64, count=rows * cols).reshape(shape)
        if np.array_equal(index < 0, np.eye(*shape, dtype=bool) & diagonal) and (index >= -1).all():
            return index
    out = []
    for u, line in enumerate(lines):
        toks = _split_row(line, cols, f"row {u + 1}")
        row = [lookup.get(tok, -2) for tok in toks]
        if -2 in row or diagonal and (row[u] != -1 or row.count(-1) != 1):
            row = [_entry(tok, u, v, parse_entry, diagonal) for v, tok in enumerate(toks)]
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(shape)


def _fixed_rows(
    body: str, shape: tuple[int, int], orders: tuple, diagonal: bool
) -> np.ndarray | None:
    """The index array of the first ``rows`` rows of ``body`` if they are
    canonical (one-digit coordinates joined by ',', single spaces, '.' on
    the diagonal if ``diagonal``, each row ended by a line feed or the
    text's end), or None.  With each '.' widened to a token, they are one
    (rows, cols * w) byte array, w per token and its separator."""
    rows, cols = shape
    k = len(orders)
    w = 2 * k
    end = rows * (cols * w - (w - 2 if diagonal else 0)) - 1  # the rows and the breaks between
    if min(shape) < 2 or body[end:end + 1] not in ("\n", ""):
        return None
    text = body[:end] + "\n"
    if k > 1 and diagonal:
        text = text.replace(".", ",".join("." * k))  # '.' as wide as a token
    if len(text) != rows * cols * w or not text.isascii():
        return None
    lo, span = _layout(orders, cols)
    cells = np.frombuffer(text.encode(), dtype=np.uint8).reshape(rows, cols * w) - lo
    # a byte below its range wraps round; the diagonal's digit slots hold '.' (254)
    marks = np.count_nonzero(cells.reshape(rows * cols, w)[:: cols + 1, ::2] == 254)
    if marks != diagonal * rows * k or np.count_nonzero(cells < span) + marks != cells.size:
        return None
    index = np.zeros(shape, dtype=np.int64)
    for i, d in enumerate(orders):  # mixed radix over the digit slots
        index = index * d + cells.reshape(rows, cols, w)[..., 2 * i]
    if diagonal:
        np.fill_diagonal(index, -1)
    return index


@lru_cache(maxsize=64)
def _layout(orders: tuple[int, ...], cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Per byte of a row: the lowest byte allowed ('0', ',', ' ' or the
    row's closing line feed), and how many."""
    lo = ([48, 44] * (len(orders) - 1) + [48, 32]) * cols
    lo[-1] = 10
    span = [x for d in orders for x in (d, 1)]
    return np.array(lo, dtype=np.uint8), np.array(span * cols, dtype=np.uint8)


def _entry(tok: str, u: int, v: int, parse_entry, diagonal: bool) -> int:
    where = f"row {u + 1}, column {v + 1}"
    if diagonal and u == v:
        if tok != ".":
            raise FormatError(f"{where}: diagonal entry must be '.', got {tok!r}")
        return -1
    if diagonal and tok == ".":
        raise FormatError(f"{where}: '.' is only allowed on the diagonal")
    return parse_entry(tok, where)


def _emit_rows(head: list[str], names: list[str], index: np.ndarray) -> str:
    """The ``head`` lines, then rows of space-joined ``names[i]``, one
    gather for the whole table."""
    rows = [" ".join(row) for row in np.array(names)[index].tolist()]
    return "\n".join(head + rows) + "\n"


# -- cover format --------------------------------------------------------------


def emit_cover(f: ArcMatrix) -> str:
    names = _element_names(f.group) + ["."]  # index -1: diagonal
    return _emit_rows([COVER_TAG, f"n={f.n} group={_emit_group(f.group)}"], names, f.index)


def parse_cover(text: str) -> ArcMatrix:
    meta, body = _split_header(text, COVER_TAG, ("n", "group"))
    n = _int_of(meta["n"], "n")
    group = _parse_group(meta["group"])
    index = _index_rows(body, (n, n), COVER_TAG, group)
    return ArcMatrix(group, index)


# -- Seidel format -------------------------------------------------------------


def emit_seidel(s: lines.SeidelMatrix) -> str:
    p = s.root_order
    exps, bad = lines._root_exponents(s, p or 2)  # +-1 entries are powers of zeta_2
    if bad is not None:
        u, v = bad
        raise FormatError(
            f"entry ({u},{v}) = {s._entry_repr(u, v)} is not a power of zeta_{p}; not representable"
        )
    names = ["1", "-1"] if p is None else [str(k) for k in range(p)]
    names.append(".")  # exponent -1: diagonal
    return _emit_rows([SEIDEL_TAG, f"n={s.n} r={'generic' if p is None else p}"], names, exps)


def _generic_entry(tok: str, where: str) -> int:
    raise FormatError(f"{where}: generic entries must be 1 or -1, got {tok!r}")


def parse_seidel(text: str) -> lines.SeidelMatrix:
    meta, body = _split_header(text, SEIDEL_TAG, ("n", "r"))
    n = _int_of(meta["n"], "n")
    root_order: int | None
    if meta["r"] == "generic":  # the exponent k of (-1)^k
        root_order = None
        lookup = {"1": 0, "+1": 0, "-1": 1}
        exps = _index_rows(body, (n, n), SEIDEL_TAG, None, _generic_entry, lookup)
    else:
        root_order = _int_of(meta["r"], "r")
        _check_order(root_order, f"r={meta['r']}")
        if not is_prime(root_order):
            raise FormatError(f"r must be a prime or 'generic', got {meta['r']!r}")
        exps = _index_rows(
            body, (n, n), SEIDEL_TAG, AbelianGroup((root_order,)),
            lambda tok, where: _int_of(tok, where) % root_order,
        )
    try:  # the diagonal's -1 maps to some index, which SeidelMatrix ignores
        return lines.SeidelMatrix(lines._root_index(exps, root_order or 2), root_order)
    except ValueError as exc:
        raise FormatError(f"invalid Seidel matrix: {exc}") from None


# -- generalized Hadamard format -----------------------------------------------


def emit_gh(h: constructions.GHMatrix) -> str:
    head = [GH_TAG, f"n={h.n} group={_emit_group(h.group)}"]
    return _emit_rows(head, _element_names(h.group), h.index)


def parse_gh(text: str) -> constructions.GHMatrix:
    meta, body = _split_header(text, GH_TAG, ("n", "group"))
    n = _int_of(meta["n"], "n")
    group = _parse_group(meta["group"])
    index = _index_rows(body, (n, n), GH_TAG, group, diagonal=False)
    return constructions.GHMatrix(group, index)


# -- form pencil format ----------------------------------------------------------


def emit_form(form: constructions.AlternatingForm) -> str:
    head = [FORM_TAG, f"p={form.p} m={form.m} s={form.s}"]
    mats = np.array(form.mats, dtype=np.int64).reshape(form.s * form.m, form.m)
    return _emit_rows(head, [str(x) for x in range(form.p)], mats)


def parse_form(text: str) -> constructions.AlternatingForm:
    meta, body = _split_header(text, FORM_TAG, ("p", "m", "s"))
    p, m, s = (_int_of(meta[key], key) for key in ("p", "m", "s"))
    if p < 2 or m < 1 or s < 1:
        raise FormatError(f"need p >= 2, m >= 1, s >= 1, got p={p} m={m} s={s}")
    constructions._check_fibres(p, m, f"a form pencil on GF({p})^{m}")
    mats = _index_rows(
        body, (s * m, m), FORM_TAG, AbelianGroup((p,)),
        lambda tok, where: _int_of(tok, where) % p, diagonal=False,
    )
    try:
        return constructions.AlternatingForm(p, m, s, mats.reshape(s, m, m))
    except ValueError as exc:
        raise FormatError(f"invalid form pencil: {exc}") from None


# -- skew product format ---------------------------------------------------------


def emit_skew(skew: constructions.SkewProduct) -> str:
    names = _element_names(_field(skew.t * skew.d))
    return _emit_rows([SKEW_TAG, f"t={skew.t} d={skew.d}"], names, np.array(skew.table))


def parse_skew(text: str) -> constructions.SkewProduct:
    """Read a skew-product table; coefficients are over the fixed modulus
    of GF(2^(td)) (``gf.MODULI``)."""
    meta, body = _split_header(text, SKEW_TAG, ("t", "d"))
    t, d = _int_of(meta["t"], "t"), _int_of(meta["d"], "d")
    if t < 1 or d < 1:
        raise FormatError(f"need t >= 1 and d >= 1, got t={t} d={d}")
    constructions._check_fibres(2, t * (d + 1), f"dcff(t={t}, d={d})")
    table = _index_rows(body, (t * d, t * d), SKEW_TAG, _field(t * d), diagonal=False)
    try:
        return constructions.SkewProduct(t=t, d=d, table=table)
    except ValueError as exc:
        raise FormatError(f"invalid skew product: {exc}") from None


# -- Latin square format ----------------------------------------------------------


def emit_latin(latin: constructions.LatinSquare) -> str:
    names = _element_names(_field(latin.t))
    return _emit_rows([LATIN_TAG, f"t={latin.t}"], names, np.array(latin.table))


def parse_latin(text: str) -> constructions.LatinSquare:
    meta, body = _split_header(text, LATIN_TAG, ("t",))
    t = _int_of(meta["t"], "t")
    if t < 1:
        raise FormatError(f"need t >= 1, got t={t}")
    group = _field(t)  # before 2^t is computed
    table = _index_rows(body, (2**t, 2**t), LATIN_TAG, group, diagonal=False)
    try:
        return constructions.LatinSquare(t=t, table=table)
    except ValueError as exc:
        raise FormatError(f"invalid Latin square: {exc}") from None


# -- Gram display -----------------------------------------------------------------


def emit_gram(label: str, ls: lines.LineSet) -> str:
    q = ls.seidel.root_order or 2
    index = ls.seidel.index
    scale = Fraction(-1) / ls.lam  # G[u, v] = -S[u, v]/lam
    one_value = q == 2 or isinstance(scale, QuadNum)  # a surd lam has +-1 entries
    names = [""] * (2 * q) + ["1"]  # index -1: the diagonal
    for i in np.flatnonzero(np.bincount(index.ravel() + 1)[1:]).tolist():
        coeffs = lines._zeta_coeffs(i, q)
        names[i] = str(coeffs[0] * scale) if one_value else ",".join(str(c * scale) for c in coeffs)
    head = [f"GRAM {label} n={ls.n} d={ls.d} alpha_sq={ls.alpha_sq} field={ls.field}"]
    return _emit_rows(head, names, index)
