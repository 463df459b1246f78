"""Text formats: canonical emission, strict parsing, pipeline tolerance."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_fuzz import ALPHABET
from oracles import (
    emit_by_tokens,
    parse_cover_by_tokens,
    parse_form_by_tokens,
    parse_gh_by_tokens,
    parse_latin_by_tokens,
    parse_seidel_by_tokens,
    parse_skew_by_tokens,
    seidel_mat,
    seidel_of_values,
    split_header_by_lines,
)

from drackn import constructions, formats
from drackn.constructions import (
    AlternatingForm,
    GHMatrix,
    SkewProduct,
    cover_to_gh,
    dcff,
    default_latin,
    default_skew,
    standard_symplectic,
    thas_somma,
)
from drackn.covers import ArcMatrix, quotient
from drackn.cyclotomic import CycNum, zeta
from drackn.errors import FormatError, UnsupportedError
from drackn.groups import AbelianGroup
from drackn.formats import (
    COVER_TAG,
    GH_TAG,
    emit_cover,
    emit_form,
    emit_gh,
    emit_gram,
    emit_latin,
    emit_seidel,
    emit_skew,
    parse_cover,
    parse_form,
    parse_gh,
    parse_latin,
    parse_seidel,
    parse_skew,
)
from drackn.lines import SeidelMatrix, cover_to_lines, paley_conference


def test_cover_round_trip():
    for f in (thas_somma(3, 2), dcff(1, 1)):
        text = emit_cover(f)
        assert parse_cover(text) == f
    text = emit_cover(thas_somma(3, 2))
    lines = text.splitlines()
    assert lines[0] == "DRACKN-COVER v1"
    assert lines[1] == "n=9 group=3"
    assert lines[2].startswith(". ")
    assert len(lines) == 11
    assert text.endswith("\n")


def test_cover_trivial_group_encoding():
    f = dcff(1, 1)
    collapsed = quotient(f, [(1,)])
    text = emit_cover(collapsed)
    lines = text.splitlines()
    assert lines[1] == "n=4 group=1"
    assert lines[2] == ". 0 0 0"
    assert parse_cover(text) == collapsed


def test_cover_multi_factor_group():
    f = dcff(1, 3)  # deck group (Z/2)^3
    text = emit_cover(f)
    assert text.splitlines()[1] == "n=16 group=2,2,2"
    assert parse_cover(text) == f


def test_parsers_ignore_trailing_content():
    f = thas_somma(3, 2)
    text = emit_cover(f) + "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\nnoise\n"
    assert parse_cover(text) == f
    s = cover_to_lines(f).seidel
    assert parse_seidel(emit_seidel(s) + "LINESET tau ...\n") == s


def test_seidel_round_trip_prime():
    s = cover_to_lines(thas_somma(3, 2)).seidel
    text = emit_seidel(s)
    lines = text.splitlines()
    assert lines[0] == "SEIDEL v1"
    assert lines[1] == "n=9 r=3"
    assert lines[2].split()[0] == "."
    assert parse_seidel(text) == s


def test_seidel_round_trip_generic():
    s = paley_conference(5)
    text = emit_seidel(s)
    assert text.splitlines()[1] == "n=6 r=generic"
    toks = set(text.splitlines()[2].split())
    assert toks <= {".", "1", "-1"}
    assert parse_seidel(text) == s


def test_emit_seidel_rejects_non_root_entry():
    # a unit-modulus cyclotomic number that is not +-zeta_3^k is no Seidel entry
    e = CycNum(3, (Fraction(5, 7), Fraction(8, 7)))
    assert e * e.conjugate() == 1
    with pytest.raises(ValueError):
        seidel_of_values([[0, e], [e.conjugate(), 0]], root_order=3)
    # -zeta_3 is a Seidel entry, but SEIDEL v1 has no token for it
    z = -zeta(3)
    s = seidel_of_values([[0, z], [z.conjugate(), 0]], root_order=3)
    with pytest.raises(FormatError) as exc:
        emit_seidel(s)
    assert str(exc.value) == (
        f"entry (0,1) = {z!r} is not a power of zeta_3; not representable"
    )


def test_gh_round_trip():
    h = cover_to_gh(thas_somma(3, 2))
    text = emit_gh(h)
    lines = text.splitlines()
    assert lines[0] == "GH v1"
    assert lines[1] == "n=9 group=3"
    assert "." not in text  # no diagonal marker in this format
    assert parse_gh(text) == h


def test_form_round_trip():
    form = standard_symplectic(3, 4)
    text = emit_form(form)
    lines = text.splitlines()
    assert lines[0] == "FORM v1"
    assert lines[1] == "p=3 m=4 s=1"
    assert len(lines) == 2 + 4
    assert parse_form(text) == form


def test_skew_round_trip():
    skew = default_skew(1, 3)
    text = emit_skew(skew)
    lines = text.splitlines()
    assert lines[0] == "SKEW v1"
    assert lines[1] == "t=1 d=3"
    assert len(lines) == 2 + 3
    parsed = parse_skew(text)
    assert parsed.table == skew.table
    assert (parsed.t, parsed.d) == (1, 3)


def test_latin_round_trip():
    latin = default_latin(2)
    text = emit_latin(latin)
    lines = text.splitlines()
    assert lines[0] == "LATIN v1"
    assert lines[1] == "t=2"
    assert len(lines) == 2 + 4
    parsed = parse_latin(text)
    assert parsed.table == latin.table


def test_header_errors():
    with pytest.raises(FormatError):
        parse_cover("")
    with pytest.raises(FormatError):
        parse_cover("BOGUS v1\nn=2 group=2\n. 1\n1 .\n")
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\n")  # missing parameter line
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2 group\n")  # malformed token
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2 n=3 group=2\n")  # duplicate
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2\n")  # missing group
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2 group=2 extra=1\n")  # unknown key
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=two group=2\n")  # non-integer n


def test_cover_body_errors():
    good = "DRACKN-COVER v1\nn=3 group=3\n. 1 2\n2 . 1\n1 2 .\n"
    assert parse_cover(good).n == 3
    with pytest.raises(FormatError):
        parse_cover(good.replace("n=3", "n=4"))  # too few rows
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=3 group=3\n. 1\n2 . 1\n1 2 .\n")  # short row
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=3 group=3\n. 1 .\n2 . 1\n1 2 .\n")  # '.' off diag
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=3 group=3\n0 1 2\n2 . 1\n1 2 .\n")  # missing '.'
    with pytest.raises(FormatError):
        parse_cover(good.replace("1 2 .", "1 3 ."))  # 3 out of range for Z/3
    with pytest.raises(FormatError):
        parse_cover(good.replace("1 2 .", "1 x ."))  # malformed coordinate
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=3 group=2,2\n. 1 0,1\n1 . 0,1\n0,1 0,1 .\n")
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2 group=0\n. 0\n0 .\n")  # bad order
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=2 group=1\n. 1\n1 .\n")  # trivial entry != 0
    with pytest.raises(FormatError):
        parse_cover("DRACKN-COVER v1\nn=3 group=3\n. 1 2\n\n1 2 .\n")  # blank row


def test_seidel_body_errors():
    with pytest.raises(FormatError):
        parse_seidel("SEIDEL v1\nn=2 r=4\n. 1\n1 .\n")  # non-prime r
    with pytest.raises(FormatError):
        parse_seidel("SEIDEL v1\nn=2 r=generic\n. 2\n2 .\n")  # entry not +-1
    # structurally bad matrices surface as FormatError, not ValueError
    with pytest.raises(FormatError):
        parse_seidel("SEIDEL v1\nn=2 r=3\n. 1\n1 .\n")  # not Hermitian
    s = parse_seidel("SEIDEL v1\nn=2 r=3\n. 1\n2 .\n")
    assert seidel_mat(s).entry(0, 1) == CycNum.zeta_pow(3, 1)
    assert seidel_mat(s).entry(1, 0) == CycNum.zeta_pow(3, 2)


def test_form_parse_errors():
    with pytest.raises(FormatError):
        parse_form("FORM v1\np=2 m=2 s=0\n")
    with pytest.raises(FormatError) as exc:
        # structurally fine, but the zero pencil is onto nowhere
        parse_form("FORM v1\np=2 m=2 s=1\n0 0\n0 0\n")
    assert "invalid form pencil" in str(exc.value)


def test_skew_parse_errors():
    with pytest.raises(FormatError):
        parse_skew("SKEW v1\nt=1 d=3\n0,0 0,0,0 0,0,0\n" + "0,0,0 0,0,0 0,0,0\n" * 2)
    with pytest.raises(FormatError):
        parse_skew("SKEW v1\nt=1 d=3\n0,0,2 0,0,0 0,0,0\n" + "0,0,0 0,0,0 0,0,0\n" * 2)
    with pytest.raises(FormatError):
        parse_skew("SKEW v1\nt=0 d=3\n")


@pytest.mark.parametrize(
    "parse, text, want",
    [
        (parse_form, "FORM v1\np=3 m=7 s=9\n",
         "a form pencil on GF(3)^7 gives a cover with 3^7 fibres"),
        (parse_form, "FORM v1\np=4 m=6 s=1\n",
         "a form pencil on GF(4)^6 gives a cover with 4^6 fibres"),
        (parse_skew, "SKEW v1\nt=3 d=3\n", "dcff(t=3, d=3) gives a cover with 2^12 fibres"),
        (parse_skew, "SKEW v1\nt=1 d=1000000000\n",
         "dcff(t=1, d=1000000000) gives a cover with 2^1000000001 fibres"),
    ],
    ids=["form-37", "form-not-prime", "skew-33", "skew-huge"],
)
def test_oversized_ingredient_header_is_refused_before_its_rows(parse, text, want):
    # the construction's text, before the missing rows or the primality of p
    with pytest.raises(UnsupportedError) as exc:
        parse(text)
    assert str(exc.value) == want + ", more than the limit of 2048"


def test_oversized_library_ingredients_are_not_written():
    table = ((0,) * 12,) * 12  # GF(2^12): above the limit, and no modulus is fixed for it
    with pytest.raises(FormatError, match=r"the order of GF\(2\^12\) is above the size limit"):
        emit_skew(SkewProduct(t=1, d=12, table=table))


def test_every_format_is_one_table_read_and_written(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(formats, name)
        monkeypatch.setattr(formats, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    spy("_index_rows")
    spy("_emit_rows")
    f = thas_somma(3, 2)
    cl = cover_to_lines(f, 1)
    for emit, parse, value in [
        (emit_cover, parse_cover, f),
        (emit_seidel, parse_seidel, cl.seidel),
        (emit_gh, parse_gh, cover_to_gh(f)),
        (emit_form, parse_form, standard_symplectic(3, 2)),
        (emit_skew, parse_skew, default_skew(1, 3)),
        (emit_latin, parse_latin, default_latin(2)),
    ]:
        assert parse(emit(value)) == value
    emit_gram("tau", cl.lines_tau)
    assert calls == ["_emit_rows", "_index_rows"] * 6 + ["_emit_rows"]


def test_latin_parse_errors():
    with pytest.raises(FormatError) as exc:
        parse_latin("LATIN v1\nt=1\n0 0\n0 0\n")  # rows are not permutations
    assert "invalid Latin square" in str(exc.value)
    with pytest.raises(FormatError):
        parse_latin("LATIN v1\nt=1\n0 1\n1 0\n0 1\n"[:14])  # truncated body
    with pytest.raises(FormatError, match=r"GF\(2\^100000\) is above the size limit of 2048"):
        parse_latin("LATIN v1\nt=100000\n0 1\n")  # 2^t rows, never computed



PENCIL_S2 = (
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ((0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
)
INGREDIENTS = {  # parser, the parent's reader, emitted texts
    "form": (parse_form, parse_form_by_tokens, [
        emit_form(standard_symplectic(p, m)) for p, m in ((2, 2), (3, 2), (2, 4), (13, 2))
    ] + [emit_form(AlternatingForm(2, 4, 2, PENCIL_S2))]),
    "skew": (parse_skew, parse_skew_by_tokens, [
        emit_skew(default_skew(t, d)) for t, d in ((1, 1), (1, 3), (2, 1), (3, 1), (1, 5))
    ]),
    "latin": (parse_latin, parse_latin_by_tokens, [
        emit_latin(default_latin(t)) for t in (1, 2, 3)
    ]),
}


def _over_budget(kind: str, text: str) -> str | None:
    """The ``constructions._check_fibres`` text of a FORM or SKEW header
    that declares a cover above the fibre limit, else None."""
    if kind == "latin":
        return None
    form = kind == "form"
    tag, keys = (formats.FORM_TAG, ("p", "m", "s")) if form else (formats.SKEW_TAG, ("t", "d"))
    try:
        meta, _ = split_header_by_lines(text, tag, keys)
        values = [int(meta[key]) for key in keys]
    except (FormatError, ValueError):
        return None
    if min(values) < 1 or values[0] < 2 and form:
        return None
    try:
        if form:
            p, m = values[:2]
            constructions._check_fibres(p, m, f"a form pencil on GF({p})^{m}")
        else:
            t, d = values
            constructions._check_fibres(2, t * (d + 1), f"dcff(t={t}, d={d})")
    except UnsupportedError as exc:
        return str(exc)
    return None


def _ingredient_outcome(parse, text: str):
    try:
        return parse(text)
    except FormatError:
        return FormatError
    except UnsupportedError as exc:
        return str(exc)


def _respaced(text: str, rng: random.Random) -> str:
    head, body = text.split("\n", 2)[:2], text.split("\n", 2)[2]
    body = "".join(rng.choice((" ", "  ", "\t", " \t ")) if c == " " else c for c in body)
    return "\n".join(head) + "\n" + body.replace("\n", rng.choice(("\n", "\r\n", " \n")))


def _rewritten(kind: str, text: str, rng: random.Random) -> str:
    """The same entries in other tokens: a FORM entry plus a multiple of p,
    each SKEW or LATIN coordinate with a '0' or '+' in front."""
    lines = text.splitlines()
    if kind == "form":
        p = int(lines[1].split()[0].removeprefix("p="))
        spell = lambda tok: str(int(tok) + p * rng.randint(-2, 2))
    else:
        spell = lambda tok: ",".join(rng.choice(("", "0", "+")) + c for c in tok.split(","))
    rows = [" ".join(spell(tok) for tok in line.split()) for line in lines[2:]]
    return "\n".join(lines[:2] + rows) + "\n"


@pytest.mark.parametrize("kind", INGREDIENTS)
def test_ingredient_parsers_match_the_parent_reader(kind):
    # emitted, re-spaced, re-written and fuzz-mutated texts (1-4 characters
    # of the fuzz alphabet): the same object, both a FormatError, or a header
    # above the fibre limit refused with the construction's text
    parse, reference, texts = INGREDIENTS[kind]
    rng, seen = random.Random(f"ingredient {kind}"), set()
    for text in texts:
        variants = [_respaced(text, rng) for _ in range(2)] + [
            _respaced(_rewritten(kind, text, rng), rng) for _ in range(2)
        ]
        for base in [text] + variants:
            cases = [base]
            for _ in range(120):
                t = base
                for _ in range(rng.randint(1, 4)):
                    i, c = rng.randrange(len(t) + 1), rng.choice(ALPHABET)
                    t = rng.choice((t[:i] + c + t[i:], t[:i] + c + t[i + 1:], t[:i] + t[i + 1:]))
                cases.append(t)
            for case in cases:
                got, budget = _ingredient_outcome(parse, case), _over_budget(kind, case)
                want = _ingredient_outcome(reference, case)
                assert got == want or budget is not None and got == budget, repr(case)
                refused = got is FormatError or isinstance(got, str)
                seen.add("size" if budget else "refused" if refused else "parsed")
    assert seen == ({"parsed", "refused"} if kind == "latin" else {"parsed", "refused", "size"})

def test_emit_gram_display():
    cl = cover_to_lines(thas_somma(3, 2))
    text = emit_gram("tau", cl.lines_tau)
    lines = text.splitlines()
    assert lines[0] == "GRAM tau n=9 d=6 alpha_sq=1/16 field=complex"
    assert len(lines) == 10
    first = lines[1].split()
    assert len(first) == 9
    assert first[0] == "1"  # unit diagonal
    assert "," in first[1]  # cyclotomic entries render as coefficient lists


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_cover_and_seidel_round_trip_random_tables(data):
    orders = data.draw(st.sampled_from([(2,), (3,), (5,), (2, 2), (3, 3)]))
    G = AbelianGroup(orders)
    n = data.draw(st.integers(2, 7))
    index = np.full((n, n), -1)
    for u in range(n):
        for v in range(u + 1, n):
            index[u, v] = data.draw(st.integers(0, G.order - 1))
            index[v, u] = G.neg_table()[index[u, v]]
    f = ArcMatrix(G, index)
    assert parse_cover(emit_cover(f)) == f
    # SEIDEL v1 writes zeta_p^k (and +-1): h = 0 for odd p
    p = data.draw(st.sampled_from([None, 2, 3, 5]))
    q = p or 2
    upper = st.sampled_from([0, q] if q == 2 else list(range(q)))
    sidx = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            sidx[u, v] = data.draw(upper)
            sidx[v, u] = sidx[u, v] - sidx[u, v] % q + (-sidx[u, v]) % q
    s = SeidelMatrix(sidx, p)
    assert parse_seidel(emit_seidel(s)) == s


@pytest.mark.parametrize(
    "group, tok, want",
    [
        # non-canonical tokens read as before: a table, or the same error text
        ("3", "01", ((None, (1,)), ((2,), None))),
        ("3", "+1", ((None, (1,)), ((2,), None))),
        ("3", "-2", "row 1, column 2: element '-2' out of range for orders (3,)"),
        ("3", "3", "row 1, column 2: element '3' out of range for orders (3,)"),
        ("2,2", "1,0,0", "row 1, column 2: element '1,0,0' has 3 coordinates, group has 2"),
        ("2,2", "01,+1", ((None, (1, 1)), ((1, 1), None))),
    ],
)
def test_parse_cover_non_canonical_tokens(group, tok, want):
    inverse = {"3": "2", "2,2": "1,1"}[group]
    text = f"DRACKN-COVER v1\nn=2 group={group}\n. {tok}\n{inverse} .\n"
    if isinstance(want, str):
        with pytest.raises(FormatError) as exc:
            parse_cover(text)
        assert str(exc.value) == want
    else:
        assert parse_cover(text).entries == want


@pytest.mark.parametrize(
    "group, tok, want",
    [
        # non-canonical tokens read as before: a table, or the same error text
        ("3", "01", (((0,), (1,)), ((1,), (0,)))),
        ("3", "+1", (((0,), (1,)), ((1,), (0,)))),
        ("3", "-2", "row 1, column 2: element '-2' out of range for orders (3,)"),
        ("3", "3", "row 1, column 2: element '3' out of range for orders (3,)"),
        ("3", "1,0", "row 1, column 2: element '1,0' has 2 coordinates, group has 1"),
        ("2,2", "1,0,0", "row 1, column 2: element '1,0,0' has 3 coordinates, group has 2"),
        ("2,2", "01,+1", (((0, 0), (1, 1)), ((1, 1), (0, 0)))),
        ("2,2", "1,x", "row 1, column 2: coordinate must be an integer, got 'x'"),
        ("1", "1", "row 1, column 2: trivial-group entry must be 0, got '1'"),
    ],
)
def test_parse_gh_non_canonical_tokens(group, tok, want):
    zero = "0,0" if group == "2,2" else "0"
    text = f"GH v1\nn=2 group={group}\n{zero} {tok}\n{tok} {zero}\n"
    if isinstance(want, str):
        with pytest.raises(FormatError) as exc:
            parse_gh(text)
        assert str(exc.value) == want
    else:
        assert parse_gh(text).entries == want


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_cover, "DRACKN-COVER v1\nn=-1 group=3\nx\n"),
        (parse_seidel, "SEIDEL v1\nn=-1 r=3\nx\n"),
        (parse_gh, "GH v1\nn=-1 group=3\nx\n"),
    ],
    ids=["cover", "seidel", "gh"],
)
def test_negative_row_count_is_malformed(parse, text):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value).endswith("row count must be >= 0, got -1")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_cover, "DRACKN-COVER v1\nn=3 group=3\n. 1 2 1\n. 2\n2 1 .\n"),
        (parse_seidel, "SEIDEL v1\nn=3 r=generic\n. 1 1 1\n. 1\n1 1 .\n"),
    ],
    ids=["cover", "seidel"],
)
def test_rows_of_compensating_lengths_are_malformed(parse, text):
    # joined, the 9 tokens put every "." on the diagonal; the rows are still malformed
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == "row 1: expected 3 entries, got 4"


# -- the fixed-layout read against the token-by-token reader -------------------

GROUPS = [(2,), (3,), (11,), (2, 2, 2), (3, 3), ()]
ROOTS = [2, 3, 5, 7, 11, None]
MUTATION_ALPHABET = "0123456789,.-+ \n\t\r\x1fx\xa0\u0663"  # NBSP, Arabic-Indic 3


def _random_cover(G: AbelianGroup, n: int, rng: random.Random) -> ArcMatrix:
    index = np.full((n, n), -1)
    for u in range(n):
        for v in range(u + 1, n):
            index[u, v] = rng.randrange(G.order)
            index[v, u] = G.neg_table()[index[u, v]]
    return ArcMatrix(G, index)


def _random_seidel(p: int | None, n: int, rng: random.Random) -> SeidelMatrix:
    q = p or 2
    index = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            k = rng.randrange(q)
            index[u, v], index[v, u] = (2 * k, 2 * k) if q == 2 else (k, -k % q)
    return SeidelMatrix(index, p)


def _random_gh(G: AbelianGroup, n: int, rng: random.Random) -> GHMatrix:
    return GHMatrix(G, np.array([[rng.randrange(G.order) for _ in range(n)] for _ in range(n)]))


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i, c = rng.randrange(len(text) + 1), rng.choice(MUTATION_ALPHABET)
        text = rng.choice((text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
                           text[:i] + text[i + 1:]))
    return text


def _outcome(parse, text: str):
    try:
        out = parse(text)
    except Exception as exc:  # the type and text of every refusal are compared
        return type(exc), str(exc)
    return type(out), getattr(out, "group", None), getattr(out, "root_order", None), \
        out.index.tolist()


@pytest.mark.parametrize("orders", GROUPS, ids=str)
def test_emit_cover_and_gh_match_the_token_writer(orders):
    G, rng = AbelianGroup(orders), random.Random(f"emit {orders}")
    for n in range(2, 12):
        f, h = _random_cover(G, n, rng), _random_gh(G, n, rng)
        assert emit_cover(f) == emit_by_tokens(COVER_TAG, f)
        assert emit_gh(h) == emit_by_tokens(GH_TAG, h)


@pytest.mark.parametrize(
    "kind, param",
    [("cover", g) for g in GROUPS] + [("seidel", r) for r in ROOTS] + [("gh", g) for g in GROUPS],
    ids=str,
)
def test_parsers_match_the_token_reader(kind, param):
    # seeded canonical texts and 1-3 character mutations of them: the same
    # array, or the same exception type and text, as the token-by-token reader
    rng = random.Random(f"{kind} {param}")
    parse, reference, make, emit = {
        "cover": (parse_cover, parse_cover_by_tokens, _random_cover, emit_cover),
        "seidel": (parse_seidel, parse_seidel_by_tokens, _random_seidel, emit_seidel),
        "gh": (parse_gh, parse_gh_by_tokens, _random_gh, emit_gh),
    }[kind]
    arg = param if kind == "seidel" else AbelianGroup(param)
    for _ in range(120):
        text = emit(make(arg, rng.randint(2, 9), rng))
        for t in [text] + [_mutate(text, rng) for _ in range(10)]:
            assert _outcome(parse, t) == _outcome(reference, t), repr(t)


LADDER = {
    "ts32": lambda: thas_somma(3, 2),
    "dcff13": lambda: dcff(1, 3),
    "ts52": lambda: thas_somma(5, 2),
    "ts26": lambda: thas_somma(2, 6),
    "ts72": lambda: thas_somma(7, 2),
}


@pytest.mark.parametrize("rung", LADDER)
def test_canonical_ladder_text_is_read_as_one_array(rung):
    f = LADDER[rung]()
    cover, seidel = emit_cover(f), emit_seidel(cover_to_lines(f, 1).seidel)
    with mock.patch.object(formats, "_element_lookup", side_effect=AssertionError("token path")):
        assert parse_cover(cover) == f
        assert emit_seidel(parse_seidel(seidel)) == seidel


def test_two_digit_tokens_are_read_in_one_dict_pass():
    f = thas_somma(11, 2)
    with mock.patch.object(formats, "_split_row", side_effect=AssertionError("row loop")):
        assert parse_cover(emit_cover(f)) == f


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _header_outcome(split, text: str):
    try:
        meta, body = split(text, COVER_TAG, ("n", "group"))
    except FormatError as exc:
        return str(exc)
    return meta, body if isinstance(body, list) else body.splitlines()


def test_header_split_matches_splitlines():
    """``_split_header`` splits only the two header lines; its body splits
    into the text's lines from the third on, and its errors are those of
    splitting the whole text, for every line boundary ``splitlines`` knows
    ("\\r\\n" too) at any place, also in the header and next to its ends."""
    rng = random.Random(7)
    lines = [COVER_TAG, "n=3 group=2", ". 0 1", "0 . 1", "1 1 ."]
    for _ in range(3000):
        text = "\n".join(lines[: rng.randint(0, 5)]) + rng.choice(("", "\n"))
        for _ in range(rng.randint(0, 3)):
            i, c = rng.randrange(len(text) + 1), rng.choice([*LINE_BREAKS, "\r\n", " ", "x"])
            text = rng.choice((text[:i] + c + text[i:], text[:i] + c + text[i + 1:]))
        want = _header_outcome(split_header_by_lines, text)
        assert _header_outcome(formats._split_header, text) == want, repr(text)
        assert _outcome(parse_cover, text) == _outcome(parse_cover_by_tokens, text), repr(text)
