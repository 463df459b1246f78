"""Exact helpers that only the tests use: GF(p) rank, subgroup closure, the
arc table of an expanded graph, one-arc changes and switches that keep
fibre 0's counts, Seidel and Gram matrices as exact
``CycNum``/``ExactMatrix`` values, the token-by-token readers and
writers of the cover, SEIDEL and GH text formats with the row-by-row arc
table check, and the coefficient-by-coefficient readers of the FORM, SKEW
and LATIN formats."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from drackn.arith import gfp_rref, is_prime, sqrt_exact
from drackn import formats
from drackn.constructions import AlternatingForm, GHMatrix, LatinSquare, SkewProduct
from drackn.covers import ArcMatrix, _check_shape, normalize
from drackn.cyclotomic import CycNum
from drackn.errors import CoverStructureError, FormatError, VerificationError
from drackn.exact_matrix import ExactMatrix
from drackn.groups import AbelianGroup
from drackn.lines import LineSet, SeidelMatrix, SeidelSpectrum, _root_index
from drackn.quadratic import QuadNum


def gfp_rank(rows: list[list[int]], p: int) -> int:
    return len(gfp_rref(rows, p)[0])


def arc_from_adjacency(adj, fibres, group: AbelianGroup) -> ArcMatrix:
    """Recover an arc table from an adjacency matrix and a fibre partition.

    ``fibres`` lists, per quotient vertex, the expanded-graph vertices of its
    fibre; the i-th vertex of each fibre is labelled with the i-th group
    element (in the group's element order).  The labelling of fibre 0 is
    arbitrary, but out of the r! orderings of each later fibre only those
    compatible with the deck action make every matching a group translation;
    the given order is checked as-is, and a ``CoverStructureError`` with
    condition ``non-translation-matching`` reports incompatibility.  For
    r = 2 every ordering works.
    """
    A = np.asarray(adj)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise CoverStructureError("not-square", f"adjacency shape {A.shape}")
    size = A.shape[0]
    if not np.array_equal(A, A.T):
        raise CoverStructureError("not-symmetric", "adjacency matrix must be symmetric")
    if A.diagonal().any():
        raise CoverStructureError("diagonal", "adjacency matrix must have zero diagonal")
    if not np.isin(A, (0, 1)).all():
        raise CoverStructureError("entry-outside-group", "adjacency entries must be 0/1")
    r = group.order
    n = len(fibres)
    if r < 2 or n < 2:
        raise CoverStructureError("too-small", "need n >= 2 fibres of size r >= 2")
    fl = [tuple(int(x) for x in fb) for fb in fibres]
    flat = sorted(x for fb in fl for x in fb)
    if any(len(fb) != r for fb in fl) or flat != list(range(size)) or size != n * r:
        raise CoverStructureError(
            "fibre-partition", f"fibres must partition 0..{size - 1} into {n} cells of size {r}"
        )
    F = np.array(fl)
    blocks = A[F[:, None, :, None], F[None, :, None, :]]  # [u, v, i, j]: F[u, i] ~ F[v, j]
    inner = blocks[np.arange(n), np.arange(n)].any(axis=(1, 2))
    if inner.any():
        raise CoverStructureError("fibre-internal-edge", f"edge inside fibre {np.argmax(inner)}")
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    bad = later & ~((blocks.sum(axis=2) == 1) & (blocks.sum(axis=3) == 1)).all(axis=2)
    if bad.any():
        u, v = (int(i) for i in np.argwhere(bad)[0])
        raise CoverStructureError(
            "non-matching", f"fibres {u} and {v} are not joined by a perfect matching"
        )
    # the i-th vertex of each fibre carries element i: the matching's differences
    diff = group.add_table()[blocks.argmax(axis=3), group.neg_table()[np.arange(r)]]
    bad = later & (diff != diff[..., :1]).any(axis=2)
    if bad.any():
        u, v = (int(i) for i in np.argwhere(bad)[0])
        raise CoverStructureError(
            "non-translation-matching",
            f"the matching between fibres {u} and {v} is not a translation; "
            "the vertex order inside the fibres is incompatible with the "
            "deck action (any order works only for r = 2)",
        )
    index = diff[..., 0]
    np.fill_diagonal(index, -1)
    return ArcMatrix(group, index)


def one_arc_change(f: ArcMatrix, u: int, v: int) -> ArcMatrix:
    """f with f(u, v) moved by the element of index 1, and f(v, u) with it."""
    G = f.group
    index = np.array(f.index)
    index[u, v] = G.add_table()[index[u, v], 1]
    index[v, u] = G.neg_table()[index[u, v]]
    return ArcMatrix(G, index)


def fibre_zero_switches(f: ArcMatrix, count: int, seed: int = 0) -> list[ArcMatrix]:
    """Up to ``count`` tables that keep fibre 0's counts of the gauged f.

    In the gauged table g take rows a, b and columns c, d, all non-zero and
    distinct, with g(a, c) = g(b, d) = x != y = g(a, d) = g(b, c), and swap
    x and y (the mates g(c, a), ... follow as inverses).  Columns c and d
    keep their values, only in other rows, and so do columns a and b, so
    every column histogram, which is fibre 0's count table N_0v(x) =
    #{w not in {0, v} : g(w, v) = x}, stays the same.  One switch per row
    pair (a, b), the pairs in a seeded order.
    """
    g = normalize(f)
    idx, neg, n = g.index, g.group.neg_table(), g.n
    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
    random.Random(seed).shuffle(pairs)
    out = []
    for a, b in pairs:
        hit = idx[a][:, None] == idx[b][None, :]  # [c, d]: g(a, c) = g(b, d)
        hit &= hit.T & (idx[a][:, None] != idx[a][None, :])
        hit[[0, a, b]] = hit[:, [0, a, b]] = False
        cd = np.argwhere(np.triu(hit))
        if len(cd) == 0:
            continue
        c, d = (int(i) for i in cd[0])
        x, y = idx[a, c], idx[a, d]
        t = np.array(idx)
        t[a, c] = t[b, d] = y
        t[a, d] = t[b, c] = x
        t[c, a] = t[d, b] = neg[y]
        t[d, a] = t[c, b] = neg[x]
        out.append(ArcMatrix(g.group, t))
        if len(out) == count:
            break
    return out


def subgroup_closure(group: AbelianGroup, generators: Iterable) -> set[tuple[int, ...]]:
    """The subgroup generated by the given elements (breadth-first closure)."""
    gens = [group.coerce(g) for g in generators]
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = group.add(h, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def rational_of(x) -> Fraction | None:
    """Exact rational value of x, or None when x is irrational.  A rational
    value the library returns is a ``Fraction``, never a ``QuadNum``."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, CycNum):
        return x.rational_value() if x.is_rational() else None
    return None


def signed_root(i: int, root_order: int | None):
    """The entry (-1)^h zeta_q^k with index i = h*q + k."""
    h, k = divmod(i, root_order or 2)
    if root_order is None:
        return Fraction(1 - 2 * h)
    return (1 - 2 * h) * CycNum.zeta_pow(root_order, k)


def seidel_of_values(entries, root_order: int | None = None) -> SeidelMatrix:
    """The Seidel matrix of nested rows of ints, ``Fraction`` and ``CycNum``
    values, with the ``ValueError`` texts of ``SeidelMatrix``."""
    rows = [list(row) for row in entries]
    n = len(rows)
    if n < 2 or any(len(row) != n for row in rows):
        shape = (n, len(rows[0]) if rows else 0)
        raise ValueError(f"Seidel matrix must be square of order >= 2, got {shape}")
    if root_order is not None and not is_prime(root_order):
        raise ValueError(f"root_order must be a prime or None, got {root_order}")
    q = root_order or 2
    valid = [i for i in range(2 * q) if q > 2 or i % 2 == 0]  # zeta_2 = -1 is h = 1
    u = next((u for u, row in enumerate(rows) if row[u] != 0), None)
    if u is not None:
        raise ValueError(f"diagonal entry ({u},{u}) is {rows[u][u]!r}, not 0")
    table = {signed_root(i, root_order): i for i in valid}
    index = np.array([[table.get(e, -1) for e in row] for row in rows], dtype=np.int64)
    np.fill_diagonal(index, 0)
    bad = np.argwhere(index < 0)
    if len(bad):
        u, v = (int(i) for i in bad[0])
        raise ValueError(f"entry ({u},{v}) = {rows[u][v]!r} is not +-zeta_{q}^k")
    return SeidelMatrix(index, root_order)


def negate(s: SeidelMatrix) -> SeidelMatrix:
    """-S: (h, k) -> (h + 1, k) on every entry."""
    q = s.root_order or 2
    return SeidelMatrix((s.index + q) % (2 * q), s.root_order)


def seidel_matrix_reference(entries, root_order: int | None = None) -> SeidelMatrix:
    """The checks of ``SeidelMatrix`` before it was an arc table over
    Z/2 x Z/q, verbatim: the entries, then Hermitian-ness through the
    negation table, each with its own scan.  The index array with -1 on the
    diagonal is then stored unchecked."""
    if not isinstance(entries, np.ndarray) or entries.ndim != 2:
        raise TypeError(
            f"SeidelMatrix takes an (n, n) index array, got {type(entries).__name__}"
        )
    n = entries.shape[0]
    if n < 2 or entries.shape[1] != n:
        raise ValueError(f"Seidel matrix must be square of order >= 2, got {entries.shape}")
    if root_order is not None and not is_prime(root_order):
        raise ValueError(f"root_order must be a prime or None, got {root_order}")
    q = root_order or 2
    index = entries.astype(np.int64)
    # an index h*q + k, exactly: a cast that changed a value refuses it
    ok = (index == entries) & (index >= 0) & (index < 2 * q)
    if q == 2:
        ok &= (index & 1) == 0  # zeta_2 = -1 is h = 1
    np.fill_diagonal(ok, True)
    if not ok.all():
        u, v = (int(i) for i in np.argwhere(~ok)[0])
        raise ValueError(f"entry ({u},{v}) = {entries[u, v].item()!r} is not +-zeta_{q}^k")
    np.fill_diagonal(index, 0)
    # conj((-1)^h zeta^k) = (-1)^h zeta^(-k), the index of -(h, k) in Z/2 x Z/q
    bad = index.T != AbelianGroup((2, q)).neg_table()[index]
    if bad.any():
        u, v = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"matrix is not Hermitian at ({u},{v})")
    np.fill_diagonal(index, -1)
    return SeidelMatrix._proven(AbelianGroup((2, q)), index, root_order=root_order)


def _exact(s: SeidelMatrix, fn, diagonal) -> ExactMatrix:
    """``diagonal`` on the diagonal and fn(S[u, v]) off it."""
    values = {i: fn(signed_root(i, s.root_order)) for i in np.unique(s.index).tolist() if i >= 0}
    return ExactMatrix(
        tuple(
            tuple(diagonal if u == v else values[i] for v, i in enumerate(row))
            for u, row in enumerate(s.index.tolist())
        )
    )


def seidel_mat(s: SeidelMatrix) -> ExactMatrix:
    """S as an exact matrix."""
    return _exact(s, lambda e: e, Fraction(0))


def gram(ls: LineSet) -> ExactMatrix:
    """The Gram matrix G = I - S/lam of a line set, as an exact matrix."""
    lam = ls.lam
    # QuadNum and CycNum do not mix: with a surd lam the entries are +-1
    rational = isinstance(lam, QuadNum)
    return _exact(ls.seidel, lambda e: -((rational_of(e) if rational else e) / lam), Fraction(1))


def exact_square_two_eigenvalue_data(s: SeidelMatrix) -> SeidelSpectrum:
    """The exact-square route that ``two_eigenvalue_data`` replaced: verify
    S^2 = aS + (n-1)I on exact entries, in row-major order, and return the
    eigenvalue data.

    Raises ``VerificationError`` with condition ``not-two-eigenvalue`` when S
    has more than two eigenvalues (witnessed by the first nonzero entry of
    S^2 - aS - (n-1)I, or by a multiplicity obstruction in the irrational
    case).
    """
    n = s.n
    rows = seidel_mat(s).rows

    def square(u, v):
        return sum(rows[u][w] * rows[w][v] for w in range(n))

    a_val = square(0, 1) / rows[0][1]
    a = rational_of(a_val)
    if a is None:
        raise VerificationError(
            "not-two-eigenvalue", f"S^2[0,1]/S[0,1] = {a_val!r} is not rational"
        )
    for u in range(n):
        for v in range(n):
            diff = square(u, v) - rows[u][v] * a - (n - 1 if u == v else 0)
            if diff != 0:
                raise VerificationError(
                    "not-two-eigenvalue", f"(S^2 - {a}S - {n - 1}I)[{u},{v}] = {diff!r}"
                )
    disc = a * a + 4 * (n - 1)
    num, den = sqrt_exact(disc.numerator), sqrt_exact(disc.denominator)
    if num is not None and den is not None:
        root = Fraction(num, den)
        theta: Fraction | QuadNum = (a + root) / 2
        tau: Fraction | QuadNum = (a - root) / 2
        mt = n * (-tau) / (theta - tau)
        mtau = n * theta / (theta - tau)
        if mt.denominator != 1 or mtau.denominator != 1 or mt < 1 or mtau < 1:
            raise VerificationError(
                "not-two-eigenvalue",
                f"multiplicities {mt}, {mtau} are not positive integers",
            )
        return SeidelSpectrum(theta, tau, int(mt), int(mtau))
    if a != 0:
        raise VerificationError(
            "not-two-eigenvalue",
            f"irrational eigenvalues with trace {a}*m != 0 cannot balance",
        )
    if n % 2:
        raise VerificationError(
            "not-two-eigenvalue", f"eigenvalues +-sqrt({n - 1}) need even order, got {n}"
        )
    root_q = QuadNum.sqrt(Fraction(n - 1))
    return SeidelSpectrum(root_q, -root_q, n // 2, n // 2)


# -- the text formats, token by token ------------------------------------------


def check_arc_index(group: AbelianGroup, index: np.ndarray) -> None:
    """``covers._check_arc_index`` row by row: the witness of every refusal."""
    _check_shape([len(row) for row in index])
    n = index.shape[0]
    bad_diag = index.diagonal() != -1
    bad_entry = ~np.eye(n, dtype=bool) & ((index < 0) | (index >= group.order))
    bad_row = bad_diag | bad_entry.any(axis=1)
    if bad_row.any():
        u = int(np.argmax(bad_row))
        if bad_diag[u]:
            raise CoverStructureError("diagonal", f"entry ({u},{u}) must be None")
        v = int(np.argmax(bad_entry[u]))
        e = None if index[u, v] < 0 else int(index[u, v])
        raise CoverStructureError("entry-outside-group", f"f({u},{v}) = {e!r} is not in {group}")
    bad_pair = np.triu(group.neg_table()[index] != index.T, 1)
    if bad_pair.any():
        u, v = (int(i) for i in np.argwhere(bad_pair)[0])
        raise CoverStructureError("inverse-pair", f"f({v},{u}) != -f({u},{v}) at ({u},{v})")


def split_header_by_lines(
    text: str, tag: str, keys: tuple[str, ...]
) -> tuple[dict[str, str], list[str]]:
    """The tag line, the key=value line and the rows after them, from one
    ``splitlines`` of the whole text."""
    text_lines = text.splitlines()
    if not text_lines:
        raise FormatError(f"empty input, expected header {tag!r}")
    if text_lines[0].strip() != tag:
        raise FormatError(f"expected header {tag!r}, got {text_lines[0].strip()!r}")
    if len(text_lines) < 2:
        raise FormatError(f"missing parameter line after {tag!r}")
    meta: dict[str, str] = {}
    for tok in text_lines[1].split():
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
    return meta, text_lines[2:]


def _take_rows(body: list[str], count: int, tag: str) -> list[str]:
    if count < 0:
        raise FormatError(f"{tag}: row count must be >= 0, got {count}")
    if len(body) < count:
        raise FormatError(f"{tag}: expected {count} matrix rows, found {len(body)}")
    rows = body[:count]
    for i, row in enumerate(rows):
        if not row.strip():
            raise FormatError(f"{tag}: matrix row {i + 1} is blank")
    return rows


def _index_rows(body: list[str], n: int, tag: str, lookup: dict, parse_entry) -> np.ndarray:
    """The block through ``lookup`` in one pass; if that fails, row by row,
    and a row with any other token token by token."""
    rows = _take_rows(body, n, tag)
    lookup, split = {**lookup, ".": -1}, [line.split() for line in rows]
    if all(len(toks) == n for toks in split):
        flat = map(lookup.get, chain.from_iterable(split), repeat(-2))
        index = np.fromiter(flat, dtype=np.int64, count=n * n).reshape(n, n)
        if (index.diagonal() == -1).all() and (index < 0).sum() == n:
            return index
    out = []
    for u, line in enumerate(rows):
        toks = formats._split_row(line, n, f"row {u + 1}")
        row = [lookup.get(tok, -2) for tok in toks]
        if row[u] != -1 or row.count(-1) != 1 or -2 in row:
            row = [_entry(tok, u, v, parse_entry) for v, tok in enumerate(toks)]
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(n, n)


def _entry(tok: str, u: int, v: int, parse_entry) -> int:
    where = f"row {u + 1}, column {v + 1}"
    if u == v:
        if tok != ".":
            raise FormatError(f"{where}: diagonal entry must be '.', got {tok!r}")
        return -1
    if tok == ".":
        raise FormatError(f"{where}: '.' is only allowed on the diagonal")
    return parse_entry(tok, where)


def parse_cover_by_tokens(text: str) -> ArcMatrix:
    meta, body = split_header_by_lines(text, formats.COVER_TAG, ("n", "group"))
    n = formats._int_of(meta["n"], "n")
    group = formats._parse_group(meta["group"])
    index = _index_rows(
        body, n, formats.COVER_TAG, formats._element_lookup(group),
        lambda tok, where: formats._element_index(group, tok, where),
    )
    check_arc_index(group, index)
    return ArcMatrix(group, index)


def parse_seidel_by_tokens(text: str) -> SeidelMatrix:
    meta, body = split_header_by_lines(text, formats.SEIDEL_TAG, ("n", "r"))
    n = formats._int_of(meta["n"], "n")
    root_order: int | None
    if meta["r"] == "generic":
        root_order = None
        lookup = {"1": 0, "+1": 0, "-1": 2}
        parse_entry = formats._generic_entry
    else:
        root_order = formats._int_of(meta["r"], "r")
        formats._check_order(root_order, f"r={meta['r']}")
        if not is_prime(root_order):
            raise FormatError(f"r must be a prime or 'generic', got {meta['r']!r}")
        lookup = {str(k): _root_index(k, root_order) for k in range(root_order)}
        parse_entry = lambda tok, where: _root_index(formats._int_of(tok, where), root_order)
    index = _index_rows(body, n, formats.SEIDEL_TAG, lookup, parse_entry)
    try:
        return SeidelMatrix(index, root_order)
    except ValueError as exc:
        raise FormatError(f"invalid Seidel matrix: {exc}") from None


def parse_gh_by_tokens(text: str) -> GHMatrix:
    meta, body = split_header_by_lines(text, formats.GH_TAG, ("n", "group"))
    n = formats._int_of(meta["n"], "n")
    group = formats._parse_group(meta["group"])
    lookup = formats._element_lookup(group)
    index = []
    for u, line in enumerate(_take_rows(body, n, formats.GH_TAG)):
        toks = formats._split_row(line, n, f"row {u + 1}")
        row = [lookup.get(tok, -1) for tok in toks]
        if -1 in row:  # a non-canonical token: read the row token by token
            row = [
                formats._element_index(group, tok, f"row {u + 1}, column {v + 1}")
                for v, tok in enumerate(toks)
            ]
        index.append(row)
    return GHMatrix(group, np.array(index, dtype=np.int64).reshape(n, n))


def _bits_index(tok: str, k: int, where: str) -> int:
    """The ``gf`` index of a GF(2^k) element written as k comma-joined bits."""
    bits = tuple(formats._int_of(x, f"{where}: coefficient") for x in tok.split(","))
    if len(bits) != k:
        raise FormatError(f"{where}: expected {k} coefficients, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise FormatError(f"{where}: coefficients must be bits, got {tok!r}")
    return int("".join(map(str, bits)), 2)


def _bits_rows(body: list[str], k: int, count: int, tag: str) -> tuple[tuple[int, ...], ...]:
    """A count x count block of GF(2^k) elements, as ``gf`` indices."""
    return tuple(
        tuple(
            _bits_index(tok, k, f"row {i + 1}, column {j + 1}")
            for j, tok in enumerate(formats._split_row(line, count, f"row {i + 1}"))
        )
        for i, line in enumerate(_take_rows(body, count, tag))
    )


def parse_form_by_tokens(text: str) -> AlternatingForm:
    meta, body = split_header_by_lines(text, formats.FORM_TAG, ("p", "m", "s"))
    p, m, s = (formats._int_of(meta[key], key) for key in ("p", "m", "s"))
    if p < 2 or m < 1 or s < 1:
        raise FormatError(f"need p >= 2, m >= 1, s >= 1, got p={p} m={m} s={s}")
    rows = _take_rows(body, s * m, formats.FORM_TAG)
    mats = []
    for k in range(s):
        mat = []
        for i in range(m):
            where = f"block {k + 1}, row {i + 1}"
            toks = formats._split_row(rows[k * m + i], m, where)
            mat.append(tuple(formats._int_of(tok, where) for tok in toks))
        mats.append(tuple(mat))
    try:
        return AlternatingForm(p, m, s, tuple(mats))
    except ValueError as exc:
        raise FormatError(f"invalid form pencil: {exc}") from None


def parse_skew_by_tokens(text: str) -> SkewProduct:
    meta, body = split_header_by_lines(text, formats.SKEW_TAG, ("t", "d"))
    t, d = formats._int_of(meta["t"], "t"), formats._int_of(meta["d"], "d")
    if t < 1 or d < 1:
        raise FormatError(f"need t >= 1 and d >= 1, got t={t} d={d}")
    table = _bits_rows(body, t * d, t * d, formats.SKEW_TAG)
    try:
        return SkewProduct(t=t, d=d, table=table)
    except ValueError as exc:
        raise FormatError(f"invalid skew product: {exc}") from None


def parse_latin_by_tokens(text: str) -> LatinSquare:
    meta, body = split_header_by_lines(text, formats.LATIN_TAG, ("t",))
    t = formats._int_of(meta["t"], "t")
    if t < 1:
        raise FormatError(f"need t >= 1, got t={t}")
    formats._check_order(2 ** min(t, 12), f"the order of GF(2^{t})")
    table = _bits_rows(body, t, 2**t, formats.LATIN_TAG)
    try:
        return LatinSquare(t=t, table=table)
    except ValueError as exc:
        raise FormatError(f"invalid Latin square: {exc}") from None


def emit_by_tokens(tag: str, table) -> str:
    """A cover (``ArcMatrix``) or GH table written one token at a time."""
    names = [",".join(map(str, el)) if el else "0" for el in table.group.elements()] + ["."]
    out = [tag, f"n={table.n} group={formats._emit_group(table.group)}"]
    out.extend(" ".join(names[i] for i in row) for row in table.index.tolist())
    return "\n".join(out) + "\n"
