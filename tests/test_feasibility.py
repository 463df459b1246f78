"""Parameter arithmetic, the necessary-condition battery, and family tables."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest

from drackn.feasibility import (
    CASE_IDS,
    FLAG_TWO_GRAPH,
    FLAG_UNPUBLISHED,
    KNOWN_PARAMETER_SETS,
    SQRT5,
    TSV_HEADER,
    family_enumerate,
    family_params,
    feasibility_battery,
    rows_to_tsv,
    spectral_params,
    tau_bounds,
)
from drackn.lines import paley_conference, two_eigenvalue_data
from drackn.quadratic import QuadNum


def test_spectral_params_933():
    ps = spectral_params(9, 3, 3)
    assert (ps.delta, ps.theta, ps.tau) == (-2, 2, -4)
    assert (ps.m_theta, ps.m_tau) == (12, 6)
    assert (ps.mbar_theta, ps.mbar_tau) == (6, 3)
    assert ps.eigenvalues_integral


def test_spectral_params_276():
    ps = spectral_params(276, 4, 56)
    assert (ps.delta, ps.theta, ps.tau) == (50, 55, -5)
    assert (ps.m_theta, ps.m_tau) == (69, 759)


def test_spectral_params_surd():
    ps = spectral_params(6, 2, 2)
    assert ps.delta == 0
    assert ps.theta == QuadNum.sqrt(5)
    assert ps.tau == -QuadNum.sqrt(5)
    assert not ps.eigenvalues_integral
    assert ps.m_theta == 3 and ps.m_tau == 3
    assert ps.format_fields() == ("6", "2", "2", "0", "sqrt(5)", "-sqrt(5)", "3", "3")
    # the Seidel route derives the same surd spectrum: a Paley conference
    # matrix of order q + 1 is a block of a (q + 1, 2, (q - 1)/2) cover
    for q in (5, 13, 17, 29):
        ps = spectral_params(q + 1, 2, (q - 1) // 2)
        spec = two_eigenvalue_data(paley_conference(q))
        assert isinstance(spec.theta, QuadNum) and isinstance(spec.tau, QuadNum)
        assert (spec.theta, spec.tau) == (ps.theta, ps.tau) == (QuadNum.sqrt(q), -QuadNum.sqrt(q))
        assert (spec.m_theta, spec.m_tau) == (ps.mbar_theta, ps.mbar_tau) == ((q + 1) // 2,) * 2


def test_spectral_params_rejects_bad_triples():
    for bad in ((1, 2, 1), (5, 1, 1), (5, 2, 0)):
        with pytest.raises(ValueError):
            spectral_params(*bad)


def test_battery_condition_keys_and_applicability():
    report = feasibility_battery(9, 3, 3)
    keys = [cond.key for cond in report.conditions]
    assert keys == ["a", "b", "mbar", "c", "d", "e", "f", "g", "h", "i", "corollary"]
    assert report.passed
    assert report.failing() == ()
    assert not report.condition("d").applicable  # delta = -2 != 0
    assert not report.condition("f").applicable  # c = 3 != 1
    assert report.condition("g").applicable  # r = 3 > 2; theta^3 = 8 = n - 1
    assert not report.condition("h").applicable  # guard excludes theta^3 = n - 1
    with pytest.raises(KeyError):
        report.condition("z")


def test_battery_passes_published_rows():
    for n, r, c in ((276, 4, 56), (45, 3, 12), (144, 4, 36), (6, 2, 2), (1225, 5, 205)):
        report = feasibility_battery(n, r, c)
        assert report.passed, (n, r, c, report.failing())


def test_battery_delta_zero_branch():
    report = feasibility_battery(6, 2, 2)
    assert not report.condition("c").applicable
    d = report.condition("d")
    assert d.applicable and d.passed
    assert d.witness == "theta=-tau=sqrt(5)"


def test_battery_631_fails_exactly_abcef():
    report = feasibility_battery(6, 3, 1)
    assert not report.passed
    assert {cond.key for cond in report.failing()} == {"a", "b", "c", "e", "f"}
    assert report.condition("a").witness == "need 1 <= 2 <= 4 <= 3"
    assert report.condition("c").witness == "eigenvalues-not-integral"
    assert report.condition("e").witness == "n even but c=1 odd"
    assert report.condition("f").witness == "n-r=3 divisibility/size fails"
    assert "sqrt(21)" in report.condition("b").witness


def test_battery_divisibility_condition_i():
    report = feasibility_battery(276, 8, 28)
    assert {cond.key for cond in report.failing()} == {"i"}
    assert report.condition("i").witness == "theta+1=56 does not divide c=28"


def test_battery_corollary():
    # r = 10 has odd prime divisor 5, which does not divide n = 28
    report = feasibility_battery(28, 10, 2)
    cor = report.condition("corollary")
    assert cor.applicable and not cor.passed
    assert "5" in cor.witness


def test_tau_bounds_odd_parity():
    b = tau_bounds(81, "odd")
    assert b.contains(-4)
    assert not b.lower_attained(-4) and not b.upper_attained(-4)
    # at n = 9 the value tau = -4 sits exactly on the lower bound
    b9 = tau_bounds(9, 3)
    assert b9.contains(-4)
    assert b9.lower_attained(-4)
    assert not b9.upper_attained(-4)
    # positive values are never inside (tau < 0 throughout)
    assert not b9.upper_satisfied(2)
    assert "tau" in b9.describe()


def test_tau_bounds_even_parity():
    b6 = tau_bounds(6, "even")
    tau = -QuadNum.sqrt(5)
    # at n = 6 the window degenerates to a point: both ends are attained
    assert b6.contains(tau)
    assert b6.lower_attained(tau) and b6.upper_attained(tau)
    b28 = tau_bounds(28, 2)
    assert b28.lower_attained(-9) and not b28.upper_attained(-9)
    assert b28.upper_attained(-3) and not b28.lower_attained(-3)
    assert b28.contains(-9) and b28.contains(-3)
    assert not b28.contains(-15)


def _may_pass(n: int, r: int, c: int) -> bool:
    """Integer prefilter that drops only triples the battery fails: condition
    (a), then (c) and the integrality of mbar."""
    if not 1 <= c * (r - 1) <= n - 2 <= c * (2 * r - 1) - 2:
        return False
    delta = n - r * c - 2
    disc = delta * delta + 4 * (n - 1)
    s = isqrt(disc)
    if s * s != disc:
        # only delta = 0 allows surd eigenvalues; then mbar = n / 2
        return delta == 0 and n % 2 == 0
    theta, tau = (delta + s) // 2, (delta - s) // 2
    # mbar_theta = -n tau / s and mbar_tau = n theta / s
    return n * tau % s == 0 and n * theta % s == 0


def test_tau_bounds_contain_every_passing_triple():
    """Up to n = 100, each triple the battery passes with theta != 1 and
    tau != -1 has tau inside ``tau_bounds(n, r)``; those with theta = 1 or
    tau = -1 all lie outside, which is why the window excludes them.  The
    battery without the prefilter finds the same 230 passing triples."""
    reports = (
        feasibility_battery(n, r, c)
        for n in range(3, 101)
        for r in range(2, n)
        for c in range(1, (n - 2) // (r - 1) + 1)
        if _may_pass(n, r, c)
    )
    passing = [rep.params for rep in reports if rep.passed]
    scoped = [p.theta != 1 and p.tau != -1 for p in passing]
    assert (len(passing), sum(scoped)) == (230, 132)
    for p, in_scope in zip(passing, scoped):
        assert tau_bounds(p.n, p.r).contains(p.tau) == in_scope, (p.n, p.r, p.c)


def test_tau_bounds_argument_checks():
    assert tau_bounds(9, 3) == tau_bounds(9, "odd")
    assert tau_bounds(9, 4) == tau_bounds(9, "even")
    with pytest.raises(ValueError):
        tau_bounds(9, "sideways")
    with pytest.raises(ValueError):
        tau_bounds(1, "odd")


def test_family_params_ia_t3():
    fp = family_params("I.a", 3)
    assert (fp.n, fp.rc, fp.delta) == (28, 32, -6)
    assert (fp.theta, fp.tau) == (3, -9)
    assert (fp.mbar_theta, fp.mbar_tau) == (21, 7)


def test_family_params_iib_t6():
    fp = family_params("II.b", 6)
    assert (fp.n, fp.rc, fp.delta) == (1225, 1025, 198)
    assert (fp.theta, fp.tau) == (204, -6)
    assert (fp.mbar_theta, fp.mbar_tau) == (35, 1190)


def test_family_params_sporadic_sqrt5():
    fp = family_params("I.a", SQRT5)
    assert (fp.n, fp.rc, fp.delta) == (6, 4, 0)
    assert fp.theta == QuadNum.sqrt(5)
    assert fp.tau == -QuadNum.sqrt(5)
    assert (fp.mbar_theta, fp.mbar_tau) == (3, 3)


def test_family_params_argument_checks():
    with pytest.raises(ValueError):
        family_params("III.a", 3)
    with pytest.raises(ValueError):
        family_params("I.b", SQRT5)  # the surd parameter is case I.a only
    with pytest.raises(ValueError):
        family_params("I.a", 1)
    with pytest.raises(ValueError):
        family_params("I.a", Fraction(7, 2))


def test_enumerate_iib_21_matches_published_table():
    rows = family_enumerate("II.b", 21)
    triples = [(row.n, row.r, row.c) for row in rows]
    assert triples == [
        (1225, 5, 205),
        (3969, 7, 497),
        (14400, 5, 2620),
        (20449, 11, 1705),
        (38025, 13, 2717),
        (50176, 7, 6692),
        (65025, 5, 12195),
        (104329, 17, 5797),
        (159201, 19, 7961),
        (193600, 5, 36880),
    ]
    assert all(row.flags == () for row in rows)
    first = rows[0].params
    assert (first.delta, first.theta, first.tau) == (198, 204, -6)
    assert (first.m_theta, first.m_tau) == (140, 4760)


def test_enumerate_ib_9_rows_and_flags():
    rows = family_enumerate("I.b", 9)
    triples = [(row.n, row.r, row.c) for row in rows]
    assert triples == [
        (28, 2, 10),
        (276, 2, 112),
        (276, 4, 56),
        (276, 16, 14),
        (595, 2, 250),
        (595, 20, 25),
        (595, 50, 10),
        (595, 100, 5),
        (595, 250, 2),
        (1128, 2, 486),
        (1128, 6, 162),
        (1128, 54, 18),
        (1128, 162, 6),
        (1128, 486, 2),
        (3160, 2, 1408),
        (3160, 4, 704),
        (3160, 8, 352),
        (3160, 64, 44),
        (3160, 128, 22),
    ]
    published = [row for row in rows if FLAG_UNPUBLISHED not in row.flags]
    assert len(published) == 10
    assert all((row.n, row.r, row.c) in KNOWN_PARAMETER_SETS for row in published)
    two_graph = [row for row in rows if FLAG_TWO_GRAPH in row.flags]
    assert [(row.n, row.r) for row in two_graph] == [
        (28, 2),
        (276, 2),
        (595, 2),
        (1128, 2),
        (3160, 2),
    ]
    extras = [
        row
        for row in rows
        if FLAG_UNPUBLISHED in row.flags and FLAG_TWO_GRAPH not in row.flags
    ]
    assert [(row.n, row.r, row.c) for row in extras] == [
        (595, 20, 25),
        (595, 50, 10),
        (595, 100, 5),
        (595, 250, 2),
    ]


def test_enumerate_ia_and_iia_single_published_rows():
    ia = family_enumerate("I.a", 6)
    assert [(row.n, row.r, row.c) for row in ia] == [
        (6, 2, 2),
        (28, 2, 16),
        (28, 4, 8),
        (276, 2, 162),
        (595, 2, 343),
    ]
    sporadic = ia[0]
    assert sporadic.t == SQRT5
    assert sporadic.flags == (FLAG_TWO_GRAPH,)  # published two-graph parameters
    assert [row for row in ia if not row.flags] == [ia[2]]  # (28, 4, 8)

    iia = family_enumerate("II.a", 8)
    assert [(row.n, row.r, row.c) for row in iia] == [(9, 3, 3)]
    assert iia[0].t == 2 and iia[0].flags == ()


def test_enumerate_identity_and_attainment():
    # b-cases: (theta + 1)(t - 1) = rc, and tau attains the upper bound;
    # a-cases attain the lower bound
    for case in ("I.b", "II.b"):
        for row in family_enumerate(case, 9):
            assert (row.params.theta + 1) * (row.t - 1) == row.r * row.c
            assert tau_bounds(row.n, row.r).upper_attained(row.params.tau)
    for case in ("I.a", "II.a"):
        for row in family_enumerate(case, 6):
            assert tau_bounds(row.n, row.r).lower_attained(row.params.tau)


def test_enumerate_rejects_unknown_case():
    with pytest.raises(ValueError):
        family_enumerate("IV.c", 5)
    assert CASE_IDS == ("I.a", "I.b", "II.a", "II.b")


def test_rows_to_tsv():
    rows = family_enumerate("II.b", 8)
    text = rows_to_tsv(rows)
    lines = text.splitlines()
    assert lines[0] == TSV_HEADER
    assert lines[1] == "1225\t5\t205\t198\t204\t-6\t140\t4760"
    assert lines[2] == "3969\t7\t497\t488\t496\t-8\t378\t23436"
    assert text.endswith("\n")
    # flagged rows carry a ninth column
    flagged = rows_to_tsv(family_enumerate("I.a", 3))
    cells = [line.split("\t") for line in flagged.splitlines()[1:]]
    assert [row[:3] for row in cells] == [
        ["6", "2", "2"],
        ["28", "2", "16"],
        ["28", "4", "8"],
    ]
    assert cells[0][8] == "two-graph"
    assert cells[1][8] == "two-graph,unpublished"
    assert len(cells[2]) == 8


def test_known_parameter_sets_all_pass_battery():
    for n, r, c in sorted(KNOWN_PARAMETER_SETS):
        assert feasibility_battery(n, r, c).passed, (n, r, c)
