"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE NN <name>: PASS``/``FAIL`` line per criterion.  Every check
is exact (integer / Fraction / cyclotomic arithmetic); the only numeric
thresholds are wall-clock budgets on the timed criteria.
"""

from __future__ import annotations

import contextlib
import io
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np
from oracles import gram, seidel_mat

from drackn.cli import main
from drackn.constructions import cover_to_gh, dcff, gh_to_cover, thas_somma
from drackn.covers import drackn_verify, normalize
from drackn.exact_matrix import mat_poly_check, mat_rank_exact
from drackn.feasibility import (
    FLAG_UNPUBLISHED,
    family_enumerate,
    feasibility_battery,
    spectral_params,
)
from drackn.groups import char_apply, characters_of
from drackn.lines import (
    absolute_bound,
    cover_to_lines,
    lines_to_cover,
    paley_conference,
)
from drackn.quadratic import QuadNum

VERIFY_933 = (
    "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\n"
    "SPECTRUM 8^1 2^12 -1^8 -4^6\n"
    "CHECKS arc-structure regular connected antipodal distance-regular "
    "character-blocks multiplicities-integral\n"
)

TSV_HEADER = "n\tr\tc\tdelta\ttheta\ttau\tm_theta\tm_tau"

# The published II.b table, frozen byte-for-byte (tab-separated columns).
TABLE_IIB = [
    "1225\t5\t205\t198\t204\t-6\t140\t4760",
    "3969\t7\t497\t488\t496\t-8\t378\t23436",
    "14400\t5\t2620\t1298\t1309\t-11\t480\t57120",
    "20449\t11\t1705\t1692\t1704\t-12\t1430\t203060",
    "38025\t13\t2717\t2702\t2716\t-14\t2340\t453960",
    "50176\t7\t6692\t3330\t3345\t-15\t1344\t299712",
    "65025\t5\t12195\t4048\t4064\t-16\t1020\t259080",
    "104329\t17\t5797\t5778\t5796\t-18\t5168\t1664096",
    "159201\t19\t7961\t7940\t7960\t-20\t7182\t2858436",
    "193600\t5\t36880\t9198\t9219\t-21\t1760\t772640",
]

# The published I.b table: (n, r, c) -> (delta, theta, tau, m_theta, m_tau).
TABLE_IB = {
    (276, 4, 56): (50, 55, -5, 69, 759),
    (276, 16, 14): (50, 55, -5, 345, 3795),
    (1128, 6, 162): (154, 161, -7, 235, 5405),
    (1128, 54, 18): (154, 161, -7, 2491, 57293),
    (1128, 162, 6): (154, 161, -7, 7567, 174041),
    (1128, 486, 2): (154, 161, -7, 22795, 524285),
    (3160, 4, 704): (342, 351, -9, 237, 9243),
    (3160, 8, 352): (342, 351, -9, 553, 21567),
    (3160, 64, 44): (342, 351, -9, 4977, 194103),
    (3160, 128, 22): (342, 351, -9, 10033, 391287),
}


def run_cli(argv, stdin_text=""):
    """Run the command-line entry point in-process and capture its output."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = perf_counter() - start
    if budget is not None and elapsed > budget:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise AssertionError(f"{name} took {elapsed:.2f}s, budget {budget:.0f}s")
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_construct_verify_pipeline():
    with criterion(1, "construct-verify-pipeline", budget=1.0):
        code, cover, err = run_cli(
            ["construct", "thas-somma", "-p", "3", "-m", "2", "-s", "1"]
        )
        assert code == 0 and err == ""
        code, report, err = run_cli(["verify"], stdin_text=cover)
        assert code == 0 and err == ""
        assert report == VERIFY_933


def test_02_sic_attainment():
    with criterion(2, "sic-attainment"):
        lines = cover_to_lines(thas_somma(3, 2)).lines_theta
        assert (lines.n, lines.d, lines.field) == (9, 3, "complex")
        assert lines.alpha_sq == Fraction(1, 4)
        g = gram(lines)
        assert mat_rank_exact(g) == 3
        assert (g * g - g * Fraction(3)).is_zero()
        assert lines.n == absolute_bound(3, "complex") == 3**2


def test_03_lines_to_cover_parameter_formula():
    with criterion(3, "lines-to-cover-formula"):
        _, cover, _ = run_cli(["construct", "thas-somma", "-p", "3", "-m", "2"])
        code, seidel, err = run_cli(
            ["cover-to-lines", "--char", "1"], stdin_text=cover
        )
        assert code == 0 and err == ""
        code, back, err = run_cli(["lines-to-cover", "--r", "3"], stdin_text=seidel)
        assert code == 0
        assert err == "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\n"
        code, report, _ = run_cli(["verify"], stdin_text=back)
        assert code == 0 and report == VERIFY_933
        # the recovered c agrees with the closed form
        #   c = (1/r) * ((n - 2) + (2d - n) / (alpha d))
        # on the tau-side line set (n = 9, d = 6, alpha = 1/4)
        tau_lines = cover_to_lines(thas_somma(3, 2)).lines_tau
        n, d = tau_lines.n, tau_lines.d
        alpha = Fraction(1, 4)
        assert alpha * alpha == tau_lines.alpha_sq and (n, d) == (9, 6)
        assert Fraction(1, 3) * ((n - 2) + Fraction(2 * d - n) / (alpha * d)) == 3
        assert Fraction(1, 3) * (7 + Fraction(3) / (Fraction(1, 4) * 6)) == 3


def test_04_iib_enumeration_matches_published_table():
    with criterion(4, "iib-enumeration", budget=5.0):
        code, out, err = run_cli(
            ["enumerate", "--case", "IIb", "--t-max", "21", "--tsv"]
        )
        assert code == 0 and err == ""
        assert out == "\n".join([TSV_HEADER] + TABLE_IIB) + "\n"


def test_05_ib_enumeration_contains_published_table():
    with criterion(5, "ib-enumeration"):
        code, out, err = run_cli(
            ["enumerate", "--case", "Ib", "--t-max", "9", "--tsv"]
        )
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert rows[0] == TSV_HEADER
        seen = {}
        extras = []
        for row in rows[1:]:
            cols = row.split("\t")
            triple = (int(cols[0]), int(cols[1]), int(cols[2]))
            seen[triple] = cols
            if len(cols) > 8:
                extras.append((triple, cols[8]))
        for triple, tail in TABLE_IB.items():
            cols = seen[triple]
            assert tuple(int(x) for x in cols[3:8]) == tail
            assert len(cols) == 8  # published rows carry no flags
        # everything beyond the published table is flagged and battery-checked
        assert {t for t, _ in extras} == set(seen) - set(TABLE_IB)
        for (n, r, c), flags in extras:
            assert FLAG_UNPUBLISHED in flags.split(",")
            assert feasibility_battery(n, r, c).passed
        assert (595, 20, 25) in dict(extras)


def test_06_a_case_enumerations_are_singletons():
    with criterion(6, "a-case-uniqueness"):
        ia = family_enumerate("I.a", 9)
        assert [(row.n, row.r, row.c) for row in ia if row.r >= 4] == [(28, 4, 8)]
        iia = family_enumerate("II.a", 9)
        assert [(row.n, row.r, row.c) for row in iia] == [(9, 3, 3)]


def test_07_dcff_cover_and_quotients():
    with criterion(7, "dcff-cover-and-quotients", budget=10.0):
        code, cover, err = run_cli(["construct", "dcff", "-t", "1", "-d", "3"])
        assert code == 0 and err == ""
        code, report, _ = run_cli(["verify"], stdin_text=cover)
        assert code == 0
        first = report.splitlines()[0]
        assert first == "DRACKN n=16 r=8 c=2 delta=-2 theta=3 tau=-5"
        fields = dict(part.split("=") for part in first.split()[1:])
        assert int(fields["n"]) * int(fields["r"]) == 128
        for gen in (
            "1,0,0", "0,1,0", "0,0,1", "1,1,0", "1,0,1", "0,1,1", "1,1,1"
        ):
            code, quot, err = run_cli(
                ["quotient", "--subgroup", gen], stdin_text=cover
            )
            assert code == 0 and err == ""
            code, qreport, _ = run_cli(["verify"], stdin_text=quot)
            assert code == 0
            assert qreport.splitlines()[0] == (
                "DRACKN n=16 r=4 c=4 delta=-2 theta=3 tau=-5"
            )


def test_08_generalized_hadamard_bridge():
    with criterion(8, "hadamard-bridge"):
        f = thas_somma(3, 2)
        h = cover_to_gh(f)
        # H . H* = 9 I + 3 \underline{G} (J - I): the differences of rows u and
        # v hit the identity 9 times when u = v, each element 3 times when not
        group = h.group
        sub = group.add_table()[:, group.neg_table()]  # sub[a, b] is a - b
        for u in range(h.n):
            for v in range(h.n):
                counts = np.bincount(sub[h.index[u], h.index[v]], minlength=group.order)
                assert counts.tolist() == ([9, 0, 0] if u == v else [3, 3, 3])
        back, cert = gh_to_cover(h)
        assert back == f
        assert (cert.params.n, cert.params.r, cert.params.c) == (9, 3, 3)


def test_09_conference_search_and_doubling():
    with criterion(9, "conference-search-doubling", budget=5.0):
        s = paley_conference(5)
        sq = seidel_mat(s) * seidel_mat(s)
        assert all(
            sq.entry(u, v) == (5 if u == v else 0)
            for u in range(6)
            for v in range(6)
        )
        arc, cert = lines_to_cover(s, 2)
        assert (cert.params.n, cert.params.r, cert.params.c) == (6, 2, 2)
        assert arc.n * len(arc.group.elements()) == 12
        root5 = QuadNum.sqrt(5)
        assert (root5, 3) in cert.spectrum and (-root5, 3) in cert.spectrum
        assert cert.spectrum_str() == "5^1 sqrt(5)^3 -1^5 -sqrt(5)^3"


def test_10_property_suites_on_constructed_covers():
    with criterion(10, "property-suites"):
        conference_arc, _ = lines_to_cover(paley_conference(5), 2)
        gh_arc, _ = gh_to_cover(cover_to_gh(thas_somma(3, 2)))
        covers = [
            thas_somma(2, 2),
            thas_somma(3, 2),
            thas_somma(5, 2),
            dcff(1, 1),
            dcff(1, 3),
            conference_arc,
            gh_arc,
        ]
        for f in covers:
            cert = drackn_verify(f)
            n, r, c = cert.params.n, cert.params.r, cert.params.c
            delta = n - r * c - 2
            quad = (Fraction(-(n - 1)), Fraction(-delta), Fraction(1))
            g = normalize(f)
            for chi in characters_of(g.group):
                if chi.is_trivial():
                    continue
                block = char_apply(g, chi)
                assert block.is_hermitian()
                assert block.trace() == 0
                assert mat_poly_check(block, quad)
            params = spectral_params(n, r, c)
            assert 1 + params.m_theta + (n - 1) + params.m_tau == r * n
            assert params.theta * params.tau == -(n - 1)
        assert feasibility_battery(276, 4, 56).passed
        assert feasibility_battery(45, 3, 12).passed
        report = feasibility_battery(6, 3, 1)
        assert not report.passed
        assert "c" in {cond.key for cond in report.failing()}
