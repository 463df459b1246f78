"""Equiangular line systems: Seidel matrices, bounds, covers <-> lines."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from count_routes import ROUTES, SETTINGS, count_route
from hypothesis import given, settings, strategies as st
from oracles import (
    exact_square_two_eigenvalue_data,
    gram,
    negate,
    seidel_mat,
    seidel_matrix_reference,
    seidel_of_values,
)

from drackn.constructions import cover_to_gh, dcff, gh_to_cover, thas_somma
from drackn.covers import ArcMatrix, _count_blocks, drackn_verify, normalize, quotient
from drackn.cyclotomic import CycNum, zeta
from drackn.errors import FormatError, UnsupportedError, VerificationError
from drackn.exact_matrix import ExactMatrix, mat_rank_exact
from drackn.formats import emit_gram, emit_seidel, parse_seidel
from drackn.groups import AbelianGroup, char_apply, characters_of, regular_expand
from drackn import covers, lines
from drackn.lines import (
    SeidelMatrix,
    SeidelSpectrum,
    absolute_bound,
    cover_to_lines,
    double_real,
    lines_to_cover,
    paley_conference,
    relative_bound,
    seidel_to_linesets,
    tight_frame_check,
    two_eigenvalue_data,
)
from drackn.quadratic import QuadNum


def _outcome(fn, s: SeidelMatrix):
    """repr of the spectrum, or the failure's condition and witness text."""
    try:
        return repr(fn(s))
    except VerificationError as exc:
        return exc.condition, str(exc)


def _assert_same_as_exact_square(s: SeidelMatrix, block: int | None = None):
    """Both count routes, with ``block``-sized blocks when given, and the
    identity step on and off."""
    want = _outcome(exact_square_two_eigenvalue_data, s)
    for route, identity in SETTINGS:
        with count_route(route, block, identity):
            assert _outcome(two_eigenvalue_data, s) == want, (route, identity)


def _signed_root(p, h: int, k: int):
    """(-1)^h zeta_p^k, or (-1)^h when p is None."""
    sign = 1 - 2 * h
    return Fraction(sign) if p is None else sign * CycNum.zeta_pow(p, k)


def _seidel_from(p, n: int, upper) -> SeidelMatrix:
    """Seidel matrix with (u, v) entry upper[(u, v)] for u < v."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), e in upper.items():
        rows[u][v], rows[v][u] = e, e.conjugate()
    return seidel_of_values(rows, p)


@lru_cache(maxsize=None)
def _ladder_block(p: int, m: int) -> SeidelMatrix:
    return cover_to_lines(thas_somma(p, m)).seidel


def _conference_cover():
    return lines_to_cover(paley_conference(5), 2)[0]


def test_relative_bound_values():
    assert relative_bound(9, 3) == Fraction(1, 4)
    assert relative_bound(6, 3) == Fraction(1, 5)
    assert relative_bound(5, 5) == 0
    with pytest.raises(ValueError):
        relative_bound(3, 4)
    with pytest.raises(ValueError):
        relative_bound(3, 0)
    with pytest.raises(ValueError):
        relative_bound(1, 1)


def test_absolute_bound_values():
    assert absolute_bound(3, "complex") == 9
    assert absolute_bound(7, "real") == 28
    assert absolute_bound(1, "real") == 1
    assert absolute_bound(4) == 16  # complex by default
    with pytest.raises(ValueError):
        absolute_bound(0)
    with pytest.raises(ValueError):
        absolute_bound(3, "quaternionic")


def test_seidel_matrix_validation():
    seidel_of_values([[0, 1], [1, 0]])  # smallest legal example
    with pytest.raises(ValueError):
        seidel_of_values([[0]])  # too small
    with pytest.raises(ValueError):
        seidel_of_values([[0, 1, 1], [1, 0, 1]])  # not square
    with pytest.raises(ValueError):
        seidel_of_values([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        seidel_of_values([[0, 2], [2, 0]])  # entry not unit-modulus
    with pytest.raises(ValueError):
        seidel_of_values([[0, 1], [-1, 0]])  # not Hermitian
    z = zeta(3)
    with pytest.raises(ValueError):
        seidel_of_values([[0, z], [z.conjugate(), 0]])  # needs root_order=3
    with pytest.raises(ValueError):
        seidel_of_values([[0, z], [z.conjugate(), 0]], root_order=2)
    with pytest.raises(ValueError):
        seidel_of_values([[0, 1], [1, 0]], root_order=4)  # root_order must be prime
    seidel_of_values([[0, z], [z.conjugate(), 0]], root_order=3)
    # (-1)^h zeta_q^k is indexed h*q + k in Z/2 x Z/q
    s = seidel_of_values([[0, -z, 1], [-z.conjugate(), 0, -1], [1, -1, 0]], root_order=3)
    assert s.index.tolist() == [[-1, 4, 0], [5, -1, 3], [0, 3, -1]]
    assert seidel_of_values([[0, -1], [-1, 0]]).index.tolist() == [[-1, 2], [2, -1]]


def test_seidel_matrix_takes_only_an_index_array():
    # a list of values is never read as indices: -1 would pass for the index 2
    for entries in ([[0, 1], [1, 0]], ((0, 2), (2, 0)), np.zeros(4, dtype=np.int64)):
        with pytest.raises(TypeError):
            SeidelMatrix(entries)
    assert SeidelMatrix(np.array([[0, 2], [2, 0]])) == seidel_of_values([[0, -1], [-1, 0]])
    with pytest.raises(ValueError) as exc:
        SeidelMatrix(np.array([[0, 5], [5, 0]]), 2)
    assert str(exc.value) == "entry (0,1) = 5 is not +-zeta_2^k"
    with pytest.raises(ValueError) as exc:
        SeidelMatrix(np.zeros((2, 3), dtype=np.int64))
    assert str(exc.value) == "Seidel matrix must be square of order >= 2, got (2, 3)"
    # other dtypes: a value is an index when it equals one; the diagonal is ignored
    for entries in (np.array([[7, 1], [2, 9]]), np.array([[0, 1], [2, 0]], dtype=object),
                    np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([[True, True], [2, False]])):
        assert SeidelMatrix(entries, 3).index.tolist() == [[-1, 1], [2, -1]]
    refusals = [
        (np.array([[0, 1.5], [1.5, 0]]), 3, "entry (0,1) = 1.5 is not +-zeta_3^k"),
        (np.array([[0, 2**64 - 1], [0, 0]], dtype=np.uint64), 3,
         "entry (0,1) = 18446744073709551615 is not +-zeta_3^k"),
        (np.array([[0, 0], [6, 0]]), 3, "entry (1,0) = 6 is not +-zeta_3^k"),
        (np.array([[0, -1], [0, 0]]), 3, "entry (0,1) = -1 is not +-zeta_3^k"),
        (np.array([[0, 1], [1, 0]]), None, "entry (0,1) = 1 is not +-zeta_2^k"),
        (np.array([[0, 2], [0, 0]]), 2, "matrix is not Hermitian at (0,1)"),
        # out of int64's range: the cast raises no RuntimeWarning
        (np.array([[0, 1e19], [1e19, 0]]), 3, "entry (0,1) = 1e+19 is not +-zeta_3^k"),
        (np.array([[0, np.nan], [np.nan, 0]]), 3, "entry (0,1) = nan is not +-zeta_3^k"),
        (np.array([[0, np.inf], [-np.inf, 0]]), 3, "entry (0,1) = inf is not +-zeta_3^k"),
    ]
    for entries, q, text in refusals:
        with pytest.raises(ValueError) as exc:
            SeidelMatrix(entries, q)
        assert str(exc.value) == text


def _seidel_or_refusal(make, entries, root_order):
    try:
        return make(entries, root_order)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_seidel_matrix_matches_its_former_checks():
    """The arc-table checks over Z/2 x Z/q against the former entry and
    Hermitian scans (``oracles.seidel_matrix_reference``), on seeded arrays:
    valid ones with any diagonal, and ones with an entry out of range, not
    Hermitian, a non-integral float, an odd index under q = 2, the uint64
    maximum, or several of these at once."""
    rng = np.random.default_rng(32)
    kinds = Counter()
    for _ in range(1500):
        p = [None, 2, 3, 5, 7][rng.integers(5)]
        q, n = p or 2, int(rng.integers(2, 7))
        iu = np.triu_indices(n, 1)
        h = rng.integers(0, 2, len(iu[0]))
        k = rng.integers(0, q, len(iu[0])) if q > 2 else np.zeros(len(iu[0]), dtype=np.int64)
        index = rng.integers(-3, 3 * q, (n, n))  # the diagonal is ignored
        index[iu] = h * q + k
        index.T[iu] = h * q + (-k % q)
        entries = index
        for _ in range(int(rng.integers(0, 3))):  # defects, at seeded places
            u, v = (int(i) for i in rng.integers(0, n, 2))
            kind = ["range", "hermitian", "float", "odd", "uint64"][rng.integers(5)]
            if kind == "range":
                entries[u, v] = [-1, -5, 2 * q, 2 * q + 3][rng.integers(4)]
            elif kind == "hermitian":
                entries[u, v] = (entries[u, v] + 2 * int(rng.integers(1, q))) % (2 * q)
            elif kind == "odd":
                entries[u, v] = 1 + 2 * int(rng.integers(0, q))
            elif kind == "float":
                entries = entries.astype(np.float64)
                entries[u, v] += 0.5
            else:
                entries = np.maximum(entries, 0).astype(np.uint64)
                entries[u, v] = 2**64 - 1
            kinds[kind] += 1
            if entries.dtype != np.int64:  # the last defect: its cast comes first
                break
        want = _seidel_or_refusal(seidel_matrix_reference, entries, p)
        got = _seidel_or_refusal(SeidelMatrix, entries, p)
        assert got == want, (entries, p)
        if isinstance(want, SeidelMatrix):
            assert got.group == want.group and not got.index.flags.writeable
            kinds["valid"] += 1
        else:
            kinds["not Hermitian" if "Hermitian" in want[1] else "bad entry"] += 1
    for entries, p in ((np.zeros((2, 3)), 3), (np.zeros((1, 1)), None), ([[0, 0], [0, 0]], 2)):
        assert _seidel_or_refusal(SeidelMatrix, entries, p) == _seidel_or_refusal(
            seidel_matrix_reference, entries, p
        )
    assert min(kinds.values()) > 50, kinds


def test_seidel_negate_involution():
    s = seidel_of_values([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
    assert negate(negate(s)) == s
    assert seidel_mat(negate(s)).entry(0, 1) == -1


def test_two_eigenvalue_data_k2():
    spec = two_eigenvalue_data(seidel_of_values([[0, 1], [1, 0]]))
    assert (spec.theta, spec.tau) == (1, -1)
    assert (spec.m_theta, spec.m_tau) == (1, 1)


def test_two_eigenvalue_data_cover_block():
    cl = cover_to_lines(thas_somma(3, 2))
    spec = two_eigenvalue_data(cl.seidel)
    assert (spec.theta, spec.tau) == (2, -4)
    # block multiplicities are m / (r - 1) = 12/2 and 6/2
    assert (spec.m_theta, spec.m_tau) == (6, 3)


def test_two_eigenvalue_data_rejects_generic_matrix():
    rows = [
        [0, -1, 1, 1],
        [-1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    with pytest.raises(VerificationError) as exc:
        two_eigenvalue_data(seidel_of_values(rows))
    assert exc.value.condition == "not-two-eigenvalue"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_two_eigenvalue_data_matches_exact_square(data):
    """Each group of the count table: Z/q for sign-free entries, Z/2 for
    +-1 entries (and every matrix with q = 2), Z/2 x Z/q for mixed ones;
    blocks of one row, ragged blocks and the default."""
    p = data.draw(st.sampled_from([None, 2, 3, 5, 7, 11]))
    n = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from(["mixed", "sign-free", "signs-only"]))
    hs = st.just(0) if kind == "sign-free" else st.integers(0, 1)
    ks = st.just(0) if p in (None, 2) or kind == "signs-only" else st.integers(0, p - 1)
    upper = {
        (u, v): _signed_root(p, data.draw(hs), data.draw(ks))
        for u in range(n)
        for v in range(u + 1, n)
    }
    block = data.draw(st.sampled_from([1, 50, None]))
    _assert_same_as_exact_square(_seidel_from(p, n, upper), block)


def test_two_eigenvalue_data_matches_exact_square_on_small_pm1():
    """Every +-1 matrix of order 3 to 5, stored with no root order, q = 2 or
    the odd q = 3: each is counted over Z/2.  At order 5 the field prime of
    Z/2 is 5 <= 2(n - 2), below the range of M_uv - a e_uv: the integer
    c = (n - 2 - a)/2 of ``two_eigenvalue_data`` makes its identity step
    exact, with the step on and off alike."""
    assert covers._transform((2,), 5)[0] == 5
    # count blocks of one row, ragged last blocks (50 keys or counts: n = 4, 5), the default
    for p, block, n in product((None, 2, 3), (1, 50, None), (3, 4, 5)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for signs in product((0, 1), repeat=len(pairs)):
            upper = {uv: _signed_root(p, h, 0) for uv, h in zip(pairs, signs)}
            _assert_same_as_exact_square(_seidel_from(p, n, upper), block)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 11])
@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_two_eigenvalue_data_of_j_minus_i(p, n):
    """J - I (every entry 1: the table's group is Z/2, with no sign present)
    has eigenvalues n - 1 and -1; I - J has 1 - n and 1."""
    q = p or 2
    plus = SeidelMatrix(np.zeros((n, n), dtype=np.int64), p)
    minus = SeidelMatrix(np.full((n, n), q), p)
    assert two_eigenvalue_data(plus) == SeidelSpectrum(Fraction(n - 1), Fraction(-1), 1, n - 1)
    assert two_eigenvalue_data(minus) == SeidelSpectrum(Fraction(1), Fraction(1 - n), n - 1, 1)
    for s in (plus, minus):
        _assert_same_as_exact_square(s, 1)


def _outcome_over_z2_x_zq(s: SeidelMatrix, monkeypatch):
    """``_outcome`` of ``two_eigenvalue_data`` with the count table forced
    over Z/2 x Z/q, whatever the entries."""
    project = lines._subgroup_projection

    def only_whole(q, H, K):  # a smaller subgroup reads as holding no entry
        return project(q, H, K) if (H, K) == (2, q) else np.full(2 * q + 1, -2)

    with monkeypatch.context() as mp:
        mp.setattr(lines, "_subgroup_projection", only_whole)
        return _outcome(two_eigenvalue_data, s)


@pytest.mark.parametrize("p", [7, 11], ids=["ts72", "ts11_2"])
def test_two_eigenvalue_data_matches_z2_x_zq_on_larger_blocks(p, monkeypatch):
    """The blocks of thas_somma(7, 2) and (11, 2) are counted over Z/p, by
    the p characters of Z/p, where Z/2 x Z/p takes its 2p characters.  The
    block, its negation and entry changes that keep or lose the sign-free
    entries, also at (0, 1), have the outcomes of the Z/2 x Z/p count on
    both routes, in blocks of a few fibres; the block's spectrum is the
    certificate's."""
    cl = cover_to_lines(thas_somma(p, 2))
    s = cl.seidel
    # so does the block of thas_somma(3, 6), n = 729
    for n, q in ((s.n, p), (729, 3)):
        assert covers._count_plan(n, q)[0] and covers._count_plan(n, 2 * q)[0]
    cases = [s, negate(s)]
    for (u, v), i in (((2, 5), (s.index[2, 5] + 1) % p), ((2, 5), s.index[2, 5] + p), ((0, 1), 1)):
        index = s.index.copy()
        index[u, v], index[v, u] = i, i - i % p + (-i) % p
        cases.append(SeidelMatrix(index, p))
    outcomes = []
    for t in cases:
        want = _outcome_over_z2_x_zq(t, monkeypatch)
        for route in ROUTES:
            with count_route(route, 4 * s.n * p):
                assert _outcome(two_eigenvalue_data, t) == want, route
        outcomes.append(want)
    ps = cl.certificate.params
    spec = SeidelSpectrum(ps.theta, ps.tau, int(ps.mbar_theta), int(ps.mbar_tau))
    assert outcomes[0] == repr(spec)
    assert [o[0] for o in outcomes[2:]] == ["not-two-eigenvalue"] * 3


def test_identity_step_is_exact_over_z3_at_small_orders():
    """2,000 seeded sign-free Hermitian arrays over Z/3 of order 8, and the
    character block of ts32 (order 9) with 20 of its switchings
    diag(zeta^j) S diag(zeta^-j).  The field primes, 7 and 13, are at most
    2(n - 2), below the range of the entries of S^2 - aS - (n - 1)I: the
    count c that pair (0, 1) gives (``two_eigenvalue_data``) makes the
    identity step exact, so the outcomes are those with the step skipped."""
    assert covers._transform((3,), 8)[0] == 7 and covers._transform((3,), 9)[0] == 13
    rng = np.random.default_rng(31)
    iu = np.triu_indices(8, 1)
    cases = []
    for _ in range(2000):
        index = np.zeros((8, 8), dtype=np.int64)
        index[iu] = rng.integers(0, 3, len(iu[0]))
        index.T[iu] = -index[iu] % 3
        cases.append(SeidelMatrix(index, 3))
    s = _ladder_block(3, 2)
    for j in [np.zeros(s.n, dtype=np.int64), *rng.integers(0, 3, (20, s.n))]:
        cases.append(SeidelMatrix((s.index + j[:, None] - j) % 3, 3))
    kinds = Counter()
    for t in cases:
        got = _outcome(two_eigenvalue_data, t)
        with count_route(identity=False):
            assert _outcome(two_eigenvalue_data, t) == got, t.index
        if isinstance(got, str):
            kinds["pass"] += 1
        else:
            kinds["pair (0, 1)" if "is not rational" in got[1] else "later pair"] += 1
    assert kinds["pass"] == 21 and min(kinds.values()) > 20, kinds


@pytest.mark.parametrize("p, m, changes", [(3, 2, None), (5, 2, 4)], ids=["ts32", "ts52"])
def test_two_eigenvalue_data_matches_exact_square_near_blocks(p, m, changes):
    """The block, its negation and its one-entry changes (all of them for
    ts32, a seeded sample for ts52, where each exact square takes ~0.6 s)."""
    s = _ladder_block(p, m)
    _assert_same_as_exact_square(s)
    _assert_same_as_exact_square(negate(s))
    mat = seidel_mat(s)
    upper = {(u, v): mat.entry(u, v) for u in range(s.n) for v in range(u + 1, s.n)}
    edits = [
        (uv, e)
        for uv in upper
        for e in (_signed_root(p, h, k) for h in (0, 1) for k in range(p))
        if e != upper[uv]
    ]
    if changes is not None:
        edits = random.Random(0).sample(edits, changes)
    for uv, e in edits:
        _assert_same_as_exact_square(_seidel_from(p, s.n, {**upper, uv: e}))


@pytest.mark.parametrize(
    "make, want_tau, want_theta",
    [
        # 9 lines in complex dimension 3 meet the absolute bound d^2
        (
            lambda: thas_somma(3, 2),
            (9, 6, Fraction(1, 16), "complex", False),
            (9, 3, Fraction(1, 4), "complex", True),
        ),
        # 6 real lines in dimension 3 (the icosahedron's diagonals) meet d(d+1)/2
        (
            _conference_cover,
            (6, 3, Fraction(1, 5), "real", True),
            (6, 3, Fraction(1, 5), "real", True),
        ),
    ],
    ids=["ts32", "conference6"],
)
def test_cover_to_lines_tight_frames(make, want_tau, want_theta):
    cl = cover_to_lines(make())
    for lines, want in ((cl.lines_tau, want_tau), (cl.lines_theta, want_theta)):
        bound = absolute_bound(lines.d, lines.field)
        assert lines.n <= bound
        assert (lines.n, lines.d, lines.alpha_sq, lines.field, lines.n == bound) == want
        # the product and elimination checks cover_to_lines no longer runs
        assert tight_frame_check(lines)
        assert mat_rank_exact(gram(lines)) == lines.d
        assert lines.alpha_sq == relative_bound(lines.n, lines.d)


def test_line_bridge_runs_no_matrix_product(monkeypatch):
    """The round trip, its refusals and witnesses, the Gram display and the
    tight-frame check read index arrays and count tables only: no matrix
    product, no character block, and no exact cyclotomic number is built."""
    covers = {p: thas_somma(p, 2) for p in (3, 5)}  # ts32, ts52
    block = _ladder_block(3, 2).index.copy()
    block[2, 5], block[5, 2] = 2, 1
    changed = SeidelMatrix(block, 3)
    irrational = SeidelMatrix(np.array([[0, 0, 0], [0, 0, 1], [0, 2, 0]]), 3)
    minus = SeidelMatrix(np.full((5, 5), 2))  # S = I - J: a = -3, c = 2 for r = 3
    refusals = [
        (lambda: two_eigenvalue_data(irrational), VerificationError,
         "not-two-eigenvalue: S^2[0,1]/S[0,1] = CycNum(3, ('-1', '-1')) is not rational"),
        (lambda: two_eigenvalue_data(changed), VerificationError,
         "not-two-eigenvalue: (S^2 - -2S - 8I)[0,2] = CycNum(3, ('1', '2'))"),
        (lambda: lines_to_cover(minus, 3), VerificationError,
         "entry-not-root-of-unity: entry (0,1) = Fraction(-1, 1) is not an order-3 root of unity"),
        (lambda: emit_seidel(SeidelMatrix(np.array([[0, 4], [5, 0]]), 3)), FormatError,
         "entry (0,1) = CycNum(3, ('0', '-1')) is not a power of zeta_3; not representable"),
        (lambda: double_real(irrational), VerificationError,
         "entry-not-root-of-unity: doubling needs +-1 entries, got CycNum(3, ('0', '1')) at (1,2)"),
    ]
    paley3 = seidel_to_linesets(SeidelMatrix(paley_conference(5).index // 2 * 3, 3))

    def forbidden(*args, **kwargs):
        raise AssertionError("exact-object work on the line bridge")

    monkeypatch.setattr(ExactMatrix, "__init__", forbidden)
    monkeypatch.setattr(ExactMatrix, "__mul__", forbidden)
    monkeypatch.setattr("drackn.groups.char_apply", forbidden)
    monkeypatch.setattr(CycNum, "__init__", forbidden)
    monkeypatch.setattr(CycNum, "_raw", classmethod(forbidden))
    for p, f in covers.items():
        cl = cover_to_lines(f)
        s = parse_seidel(emit_seidel(cl.seidel))
        assert s == cl.seidel
        assert seidel_to_linesets(s) == (cl.lines_tau, cl.lines_theta)
        arc, cert = lines_to_cover(s, p)
        assert cert == cl.certificate
        assert arc == normalize(f)
        for ls in (cl.lines_tau, cl.lines_theta):
            assert emit_gram("tau", ls).count("\n") == ls.n + 1
            assert tight_frame_check(ls)
    for ls, entry in zip(paley3, ("1/5*sqrt(5)", "-1/5*sqrt(5)")):  # -1/lam, lam = -+sqrt(5)
        assert emit_gram("lines", ls).splitlines()[1].split()[:2] == ["1", entry]
        assert tight_frame_check(ls)
    for run, error, text in refusals:
        with pytest.raises(error) as exc:
            run()
        assert str(exc.value) == text


@pytest.mark.parametrize(
    "make", [lambda: thas_somma(3, 2), lambda: dcff(1, 3)], ids=["ts32", "dcff13"]
)
def test_cover_to_lines_block_matches_char_apply(make):
    """The index relabelling <e_chi, f(u, v)> mod p, gauged in Z/p, against
    the exact block of the gauged table, on the cover and on a switch
    f(u, v) + g(u) - g(v) of it by random g, which is not normalized."""
    f = make()
    G, p = f.group, f.group.prime_exponent
    g = np.random.default_rng(5).integers(0, G.order, f.n)
    index = G.add_table()[G.add_table()[f.index, g[:, None]], G.neg_table()[g]]
    np.fill_diagonal(index, -1)
    switched = ArcMatrix(G, index)
    assert not switched.is_normalized() and normalize(switched) == normalize(f)
    for chi in characters_of(G)[1:]:
        want = seidel_of_values(char_apply(normalize(f), chi).rows, p)
        for table in (f, switched):
            assert cover_to_lines(table, char_index=G.index(chi.exponents)).seidel == want


def test_cover_to_lines_char_index_range():
    f = thas_somma(3, 2)
    cl1 = cover_to_lines(f, char_index=2)
    assert cl1.lines_theta.d == 3
    with pytest.raises(ValueError):
        cover_to_lines(f, char_index=0)
    with pytest.raises(ValueError):
        cover_to_lines(f, char_index=3)


def test_lines_to_cover_round_trip():
    f = thas_somma(3, 2)
    cl = cover_to_lines(f)
    arc, cert = lines_to_cover(cl.seidel, 3)
    assert (cert.params.n, cert.params.r, cert.params.c) == (9, 3, 3)
    assert cert == drackn_verify(arc)
    # folding the rebuilt cover's block gives back the same Seidel matrix
    assert cover_to_lines(arc).seidel == cl.seidel


@pytest.mark.parametrize(
    "make", [lambda: thas_somma(3, 2), lambda: thas_somma(5, 2), lambda: dcff(1, 3)],
    ids=["ts32", "ts52", "dcff13"],
)
def test_bridges_certify_without_drackn_verify(monkeypatch, make):
    """lines_to_cover and gh_to_cover build no second count table: each
    certifies from the identity it has just proven."""
    f = make()
    cl, h = cover_to_lines(f), cover_to_gh(f)

    def forbidden(*args, **kwargs):
        raise AssertionError("a bridge called drackn_verify")

    monkeypatch.setattr("drackn.lines.drackn_verify", forbidden)
    monkeypatch.setattr("drackn.constructions.drackn_verify", forbidden)
    lines_arc, lines_cert = lines_to_cover(cl.seidel, f.group.prime_exponent)
    gh_arc, gh_cert = gh_to_cover(h)
    monkeypatch.undo()
    assert lines_cert == drackn_verify(lines_arc)
    assert cover_to_lines(lines_arc).seidel == cl.seidel
    assert gh_arc == f and gh_cert == drackn_verify(f)


@pytest.mark.parametrize(
    "make", [lambda: thas_somma(5, 2), lambda: dcff(1, 3)], ids=["ts52", "dcff13"]
)
def test_bridges_do_not_check_proven_arrays_again(monkeypatch, make):
    """``cover_to_lines`` builds its block from a verified arc table,
    ``lines_to_cover`` its table from a Hermitian S and ``normalize`` a gauge
    switch of a valid table: none runs the public constructors' checks, and
    each result equals the checked one."""
    f = make()
    checks = []
    init = SeidelMatrix.__init__
    monkeypatch.setattr(covers, "_check_arc_index", lambda *args: checks.append(args))
    monkeypatch.setattr(SeidelMatrix, "__init__", lambda *args: checks.append(init(*args)))
    cl = cover_to_lines(f)
    arc, _ = lines_to_cover(cl.seidel, f.group.prime_exponent)
    assert normalize(arc).index[0, 1:].max() == 0
    monkeypatch.undo()
    assert checks == []
    assert SeidelMatrix(np.array(cl.seidel.index), cl.seidel.root_order) == cl.seidel
    assert ArcMatrix(arc.group, np.array(arc.index)) == arc
    assert not (cl.seidel.index.flags.writeable or arc.index.flags.writeable)


def test_proven_tables_pass_their_constructors(monkeypatch):
    """Every table stored unchecked through ``_proven`` (by ``normalize``,
    ``quotient``, ``cover_to_gh``, ``gh_to_cover``, ``cover_to_lines``,
    ``lines_to_cover`` and ``double_real``) equals the table that the
    validating constructor of its type builds from a copy of its array."""
    made = Counter()
    proven = covers._IndexTable._proven.__func__

    def checked(cls, group, index, **fields):
        table = proven(cls, group, index, **fields)
        copy = np.array(index)
        if cls is SeidelMatrix:
            want = SeidelMatrix(copy, fields["root_order"])
        else:
            want = cls(group, copy)
        assert want == table and want.group == group
        made[cls.__name__] += 1
        return table

    monkeypatch.setattr(covers._IndexTable, "_proven", classmethod(checked))
    for f in (thas_somma(3, 2), thas_somma(5, 2), dcff(1, 3), dcff(1, 1)):
        normalize(f)
        quotient(f, [f.group.elements()[1]])
        gh_to_cover(cover_to_gh(f))
        for char in range(1, f.group.order):
            cl = cover_to_lines(f, char)
            lines_to_cover(cl.seidel, f.group.prime_exponent)
            if f.group.prime_exponent == 2:
                double_real(cl.seidel)
    double_real(paley_conference(13))
    blocks, real = 2 + 4 + 7 + 1, 7 + 1 + 1  # character blocks; +-1 ones and Paley
    assert made == {"ArcMatrix": 3 * 4 + blocks + real, "GHMatrix": 4, "SeidelMatrix": blocks}


def _pm1_two_eigenvalue(n: int) -> np.ndarray:
    """Index arrays of every +-1 Seidel matrix of order n with
    S^2 = aS + (n-1)I for an integer a (an integer matrix product over all
    2^(n(n-1)/2) of them at once)."""
    iu = np.triu_indices(n, 1)
    bits = (np.arange(2 ** len(iu[0]))[:, None] >> np.arange(len(iu[0]))) & 1
    S = np.zeros((len(bits), n, n), dtype=np.int64)
    S[:, iu[0], iu[1]] = 1 - 2 * bits
    S += S.transpose(0, 2, 1)
    sq = S @ S
    a = (sq[:, 0, 1] * S[:, 0, 1])[:, None, None]
    ok = (sq == a * S + (n - 1) * np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    return 1 - S[ok]  # +1 -> 0, -1 -> 2


def _switched_blocks(rng) -> list[SeidelMatrix]:
    """Character blocks of ladder covers and the negated +-1 ones, permuted
    and switched by a diagonal of roots: S'[u, v] = d_u S[pu, pv] / d_v."""
    out = []
    for f in (thas_somma(3, 2), thas_somma(5, 2), thas_somma(2, 4), dcff(1, 3), thas_somma(7, 2)):
        s = cover_to_lines(f).seidel
        q = s.root_order
        for t in (s, negate(s)) if q == 2 else (s,):
            for _ in range(4):
                p, d = rng.permutation(t.n), rng.integers(0, q, t.n)
                h, k = np.divmod(t.index[np.ix_(p, p)], q)
                if q == 2:  # d_u = (-1)^d_u
                    h = (h + d[:, None] + d) % 2
                else:  # d_u = zeta^d_u
                    k = (k + d[:, None] - d) % q
                out.append(SeidelMatrix(h * q + k, q))
    return out


def test_lines_to_cover_certificate_matches_drackn_verify():
    """lines_to_cover certifies from S^2 = aS + (n-1)I alone; drackn_verify
    on the folded cover stays the oracle."""
    rng = np.random.default_rng(3)
    seidels = [SeidelMatrix(index) for n in range(3, 7) for index in _pm1_two_eigenvalue(n)]
    accepted = 0
    for s in seidels + _switched_blocks(rng):
        r = s.root_order or 2
        try:
            arc, cert = lines_to_cover(s, r)
        except VerificationError as exc:
            assert exc.condition == "parameters"  # c < 1
            continue
        assert cert == drackn_verify(arc)
        accepted += 1
    assert accepted == 444 + 28  # +-1 matrices, then every block


@pytest.mark.parametrize("q", [3, 7, 11])
def test_skew_paley_matrix_needs_the_prime_hypothesis(q):
    """S = iC for the Paley skew conference matrix C of order n = q + 1 has
    S^2 = (n-1)I, and its entries +-i fold into an arc table over Z/4; but
    4 is no prime (1 + zeta_4^2 = 0), and the counts are not constant off
    f(0, 1), so the folded table is no cover."""
    squares = {x * x % q for x in range(1, q)}
    n = q + 1
    C = np.zeros((n, n), dtype=np.int64)
    C[0, 1:], C[1:, 0] = 1, -1
    C[1:, 1:] = [[0 if i == j else 1 if (j - i) % q in squares else -1 for j in range(q)]
                 for i in range(q)]
    assert np.array_equal(C @ C, -(n - 1) * np.eye(n, dtype=np.int64))
    index = np.where(C == 1, 1, 3)  # i -> 1, -i -> 3
    np.fill_diagonal(index, -1)
    arc = ArcMatrix(AbelianGroup((4,)), index)
    _, N = next(_count_blocks(arc.index, arc.group))
    k = (q - 1) // 2
    assert N[0, 1].tolist() == [k, 0, k, 0]  # f(0, 1) = 1
    with pytest.raises(UnsupportedError):
        drackn_verify(arc)


def test_lines_to_cover_rejects_bad_parameters():
    s = cover_to_lines(thas_somma(3, 2)).seidel
    # negating swaps the eigenvalues; the derived c is 5/3
    with pytest.raises(VerificationError) as exc:
        lines_to_cover(negate(s), 3)
    assert exc.value.condition == "parameters"
    with pytest.raises(UnsupportedError):
        lines_to_cover(s, 4)


def test_lines_to_cover_refuses_r_above_size_limit():
    # the limit comes first: 2^61 - 1 is prime, and its trial division took more than 20 s
    with pytest.raises(UnsupportedError) as exc:
        lines_to_cover(paley_conference(5), 2**61 - 1)
    assert str(exc.value) == "deck order r = 2305843009213693951 is above the size limit of 2048"


def test_seidel_exponents():
    """``_root_exponents(S, r)`` reads zeta_r^k off the index array, or
    names the first entry that is no r-th root of unity."""

    def exps(e, p, r):
        k, bad = lines._root_exponents(seidel_of_values([[0, e], [e.conjugate(), 0]], p), r)
        return None if bad is not None else int(k[0, 1])

    assert exps(Fraction(1), None, 3) == 0
    assert exps(Fraction(-1), None, 2) == 1
    assert exps(Fraction(-1), None, 3) is None
    z = zeta(3)
    assert exps(z, 3, 3) == 1
    assert exps(z * z, 3, 3) == 2
    assert exps(z, 3, 5) is None
    assert exps(-z, 3, 3) is None
    assert exps(CycNum.zeta_pow(3, 0), 3, 3) == 0
    assert exps(-CycNum.zeta_pow(3, 0), 3, 2) == 1
    k, bad = lines._root_exponents(seidel_of_values([[0, 1, z], [1, 0, 1], [z * z, 1, 0]], 3), 2)
    assert bad == (0, 2) and k[0, 0] == -1


def test_double_real_small_cases():
    # one +1 entry: two disjoint edges
    adj, fibres = double_real(seidel_of_values([[0, 1], [1, 0]]))
    assert fibres == [(0, 1), (2, 3)]
    expect = np.zeros((4, 4), dtype=np.int64)
    for x, y in ((0, 2), (1, 3)):
        expect[x, y] = expect[y, x] = 1
    assert np.array_equal(adj, expect)
    # all +1 entries on 3 vertices: two disjoint triangles
    adj3, _ = double_real(seidel_of_values([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    evens = adj3[np.ix_((0, 2, 4), (0, 2, 4))]
    odds = adj3[np.ix_((1, 3, 5), (1, 3, 5))]
    assert evens.sum() == odds.sum() == 6  # triangles
    assert adj3.sum() == 12  # and nothing between them


def test_double_real_needs_pm1_entries():
    z = zeta(3)
    s = seidel_of_values([[0, z], [z.conjugate(), 0]], root_order=3)
    with pytest.raises(VerificationError) as exc:
        double_real(s)
    assert exc.value.condition == "entry-not-root-of-unity"


def test_conference_search_and_doubling():
    s = paley_conference(5)
    sq = seidel_mat(s) * seidel_mat(s)
    assert (sq - sq.plus_scalar_diag(0)).is_zero()  # sanity on helper use
    assert all(
        sq.entry(u, v) == (5 if u == v else 0) for u in range(6) for v in range(6)
    )
    assert paley_conference(5) == s
    spec = two_eigenvalue_data(s)
    assert spec.theta == QuadNum.sqrt(5)
    assert spec.tau == -QuadNum.sqrt(5)
    assert (spec.m_theta, spec.m_tau) == (3, 3)

    lt, lth = seidel_to_linesets(s)
    assert (lt.d, lth.d) == (3, 3)
    assert lt.alpha_sq == lth.alpha_sq == Fraction(1, 5)
    assert lt.field == lth.field == "real"
    assert lt.alpha_sq == relative_bound(6, 3)

    arc, cert = lines_to_cover(s, 2)
    assert (cert.params.n, cert.params.r, cert.params.c) == (6, 2, 2)
    assert cert.spectrum_str() == "5^1 sqrt(5)^3 -1^5 -sqrt(5)^3"
    adj, fibres = double_real(s)
    assert np.array_equal(adj, regular_expand(arc))


def test_paley_conference_needs_a_prime_one_mod_four():
    for q in (1, 2, 3, 4, 7, 9, 21, 25):
        with pytest.raises(ValueError) as exc:
            paley_conference(q)
        assert str(exc.value) == (
            f"Paley conference matrices need a prime q = 1 (mod 4), got {q}"
        )


def test_paley_conference_of_order_14():
    s = paley_conference(13)
    assert s.n == 14 and s.root_order is None
    assert set(s.index.ravel().tolist()) == {-1, 0, 2}  # every entry is +-1
    arc, cert = lines_to_cover(s, 2)
    assert (cert.params.n, cert.params.r, cert.params.c) == (14, 2, 6)
    assert cert.params.delta == 0
    assert cert.params.theta == QuadNum.sqrt(13)
    assert cert == drackn_verify(arc)


def test_seidel_to_linesets_dimension_split():
    s = seidel_of_values([[0, 1], [1, 0]])
    lt, lth = seidel_to_linesets(s)
    assert lt.d + lth.d == s.n
    assert (lt.d, lth.d) == (1, 1)
