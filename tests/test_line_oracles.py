"""The integer-only line bridge against the exact views of ``oracles``.

Witness and refusal texts, the ``emit_gram`` display and the
``tight_frame_check`` verdict must equal, byte for byte, what the exact
``CycNum``/``ExactMatrix`` arithmetic gives: on seeded random index arrays,
on every character block of ladder covers, and on Paley conference matrices
stored under several root orders.  The ``ExactMatrix`` products stay at
n <= 25.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
from count_routes import count_route
from oracles import exact_square_two_eigenvalue_data, gram, seidel_mat

from drackn.constructions import dcff, thas_somma
from drackn.cyclotomic import CycNum
from drackn.errors import DracknError, UnsupportedError, VerificationError
from drackn.formats import emit_gram, emit_seidel
from drackn.lines import (
    SeidelMatrix,
    cover_to_lines,
    double_real,
    lines_to_cover,
    paley_conference,
    seidel_to_linesets,
    tight_frame_check,
    two_eigenvalue_data,
)
from drackn.quadratic import QuadNum

ORDERS = (None, 2, 3, 5, 7)


def _failure(fn, *args) -> str | None:
    try:
        fn(*args)
    except DracknError as exc:
        return str(exc)
    return None


def _lines_to_cover_text(s: SeidelMatrix, r: int, spec) -> str | None:
    """``lines_to_cover``'s refusal, from the exact square (``spec``: its
    spectrum or refusal text) and the exact entries."""
    if isinstance(spec, str):
        return spec
    c = (s.n - 2 - (spec.theta + spec.tau)) / r
    if c.denominator != 1 or c < 1:
        return f"parameters: derived c = {c} is not a positive integer"
    _, bad = s.exponents(r)
    if bad is None:
        return None
    entry = seidel_mat(s).entry(*bad)
    return (
        f"entry-not-root-of-unity: entry ({bad[0]},{bad[1]}) = {entry!r} "
        f"is not an order-{r} root of unity"
    )


def _emit_seidel_text(s: SeidelMatrix) -> str | None:
    _, bad = s.exponents(s.root_order or 2)
    if bad is None:
        return None
    entry = seidel_mat(s).entry(*bad)
    return (
        f"entry ({bad[0]},{bad[1]}) = {entry!r} is not a power of "
        f"zeta_{s.root_order}; not representable"
    )


def _double_real_text(s: SeidelMatrix) -> str | None:
    _, bad = s.exponents(2)
    if bad is None:
        return None
    entry = seidel_mat(s).entry(*bad)
    return (
        f"entry-not-root-of-unity: doubling needs +-1 entries, got {entry!r} "
        f"at ({bad[0]},{bad[1]})"
    )


def _coeff_text(e) -> str:
    if isinstance(e, CycNum):
        return ",".join(str(c) for c in e.coeffs)
    if isinstance(e, QuadNum):
        return str(e)
    return str(Fraction(e))


def _gram_text(label: str, ls) -> str:
    out = [f"GRAM {label} n={ls.n} d={ls.d} alpha_sq={ls.alpha_sq} field={ls.field}"]
    out.extend(" ".join(_coeff_text(e) for e in row) for row in gram(ls).rows)
    return "\n".join(out) + "\n"


def _check_refusals(s: SeidelMatrix, tally: Counter) -> None:
    """Every refusal text of S against the exact views; tallies the kinds."""
    try:
        spec = exact_square_two_eigenvalue_data(s)
    except VerificationError as exc:
        spec = str(exc)
    got = _failure(two_eigenvalue_data, s)
    assert got == (spec if isinstance(spec, str) else None)
    if got is not None:
        assert "is not rational" in got or "(S^2 - " in got, got
        tally["not rational" if "is not rational" in got else "(S^2 - aS)"] += 1
    for r in (2, 3, 5):
        got = _failure(lines_to_cover, s, r)
        assert got == _lines_to_cover_text(s, r, spec)
        tally["entry-not-root-of-unity"] += bool(got and got.startswith("entry-not"))
    got = _failure(emit_seidel, s)
    assert got == _emit_seidel_text(s)
    tally["emit_seidel"] += got is not None
    got = _failure(double_real, s)
    assert got == _double_real_text(s)
    tally["double_real"] += got is not None


def _check_line_set(ls, tally: Counter, frames: bool = True) -> None:
    """The Gram display, and the tight-frame verdict at d and at d -+ 1
    (one exact product G^2 for all three)."""
    assert emit_gram("lines", ls) == _gram_text("lines", ls)
    tally["gram"] += 1
    if not frames:
        return
    g = gram(ls)
    sq = g * g
    for d in {ls.d, ls.d - 1, ls.d + 1} & set(range(1, ls.n + 1)):
        wrong = dataclasses.replace(ls, d=d)
        assert tight_frame_check(wrong) == (sq - g * Fraction(ls.n, d)).is_zero()
        tally["tight frame" if d == ls.d else "wrong d"] += 1


def _line_sets(s: SeidelMatrix):
    try:
        return seidel_to_linesets(s)
    except (VerificationError, UnsupportedError):
        return ()


def _random_index(rng, p: int | None, n: int) -> np.ndarray:
    q = p or 2
    h = rng.integers(0, 2, (n, n))
    k = rng.integers(0, q, (n, n)) if q > 2 else np.zeros((n, n), dtype=np.int64)
    upper = h * q + k
    index = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    index[iu] = upper[iu]
    index.T[iu] = upper[iu] - upper[iu] % q + (-upper[iu]) % q
    return index


def _bridge_outcomes(s: SeidelMatrix) -> list:
    """``two_eigenvalue_data``'s spectrum and ``lines_to_cover``'s table and
    certificate for r = 2, 3, 5, or their refusal texts."""
    out = []
    for fn, args in ((two_eigenvalue_data, ()), *((lines_to_cover, (r,)) for r in (2, 3, 5))):
        try:
            out.append(fn(s, *args))
        except DracknError as exc:
            out.append(str(exc))
    return out


def test_random_index_arrays_match_the_exact_views():
    """Also: the same outcomes with the identity step skipped."""
    rng = np.random.default_rng(23)
    tally: Counter = Counter()
    for p in ORDERS:
        for n in range(2, 10):
            for _ in range(20):
                s = SeidelMatrix(_random_index(rng, p, n), p)
                _check_refusals(s, tally)
                with count_route(identity=False):
                    counted = _bridge_outcomes(s)
                assert _bridge_outcomes(s) == counted
                for ls in _line_sets(s):
                    _check_line_set(ls, tally)
    assert min(tally[k] for k in ("not rational", "(S^2 - aS)", "emit_seidel", "double_real")) > 50
    assert tally["gram"] > 100 and tally["wrong d"] > 0


def test_ladder_blocks_match_the_exact_views():
    """The Gram display of every character of ts32, ts52 and dcff13; the
    exact squares and products at n = 25 (ts52) for character 1 only."""
    tally: Counter = Counter()
    for f in (thas_somma(3, 2), thas_somma(5, 2), dcff(1, 3)):
        for char in range(1, f.group.order):
            cl = cover_to_lines(f, char)
            exact = f.n < 25 or char == 1
            if exact:
                _check_refusals(cl.seidel, tally)
            for ls in (cl.lines_tau, cl.lines_theta):
                _check_line_set(ls, tally, frames=exact)
    assert tally["gram"] == 2 * (2 + 4 + 7)
    assert tally["tight frame"] == 2 * (2 + 1 + 7)
    assert tally["emit_seidel"] == tally["double_real"] - (2 + 1) == 0  # dcff13 is real


def test_paley_and_sign_matrices_match_the_exact_views():
    """Paley 5 and 13 as r=generic, as r = 2 and with their +-1 entries under
    root orders 3, 5 and 7 (a surd lam), and S = I - J for n = 3..6."""
    tally: Counter = Counter()
    seidels = []
    for q in (5, 13):
        h = paley_conference(q).index // 2
        seidels += [SeidelMatrix(h * 2, None), SeidelMatrix(h * 2, 2)]
        seidels += [SeidelMatrix(h * p, p) for p in (3, 5, 7)]
    for p in ORDERS:
        seidels += [SeidelMatrix(np.full((n, n), p or 2), p) for n in range(3, 7)]
    for s in seidels:
        _check_refusals(s, tally)
        for ls in _line_sets(s):
            _check_line_set(ls, tally)
    assert tally["gram"] == 2 * len(seidels)
    assert tally["entry-not-root-of-unity"] > 0 and tally["wrong d"] > 0
