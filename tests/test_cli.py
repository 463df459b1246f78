"""End-to-end command-line behaviour: payloads, reports, exit codes."""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import fibre_zero_switches, one_arc_change

from drackn import constructions
from drackn.cli import main
from drackn.constructions import (
    AlternatingForm,
    GHMatrix,
    cover_to_gh,
    dcff,
    default_latin,
    default_skew,
    standard_symplectic,
    thas_somma,
)
from drackn.errors import DracknError, RoutesDisagreeError
from drackn.feasibility import family_enumerate, rows_to_tsv
from drackn.formats import (
    emit_cover,
    emit_form,
    emit_gh,
    emit_latin,
    emit_seidel,
    emit_skew,
    parse_cover,
)
from drackn.lines import cover_to_lines

ROOT = Path(__file__).resolve().parents[1]

VERIFY_933 = (
    "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\n"
    "SPECTRUM 8^1 2^12 -1^8 -4^6\n"
    "CHECKS arc-structure regular connected antipodal distance-regular "
    "character-blocks multiplicities-integral\n"
)

LINESET_TAU = (
    "LINESET tau n=9 d=6 alpha_sq=1/16 field=complex tight-frame=yes "
    "relative-bound=1/16 relative-attained=yes absolute-bound=36 absolute-attained=no"
)
LINESET_THETA = (
    "LINESET theta n=9 d=3 alpha_sq=1/4 field=complex tight-frame=yes "
    "relative-bound=1/4 relative-attained=yes absolute-bound=9 absolute-attained=yes"
)


def run(capsys, monkeypatch, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_peak(capsys, monkeypatch, argv, stdin_text=""):
    """``run`` plus the tracemalloc peak of the command, in bytes."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, monkeypatch, argv, stdin_text)
        return code, out, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cover_933(capsys, monkeypatch) -> str:
    code, out, err = run(capsys, monkeypatch, ["construct", "thas-somma", "-p", "3", "-m", "2"])
    assert code == 0 and err == ""
    return out


def test_construct_and_verify_pipeline(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    assert cover.splitlines()[0] == "DRACKN-COVER v1"
    assert cover.splitlines()[1] == "n=9 group=3"
    code, out, err = run(capsys, monkeypatch, ["verify"], stdin_text=cover)
    assert code == 0
    assert out == VERIFY_933
    assert err == ""


def test_construct_dcff(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["construct", "dcff", "-t", "1", "-d", "1"])
    assert code == 0
    assert out.splitlines()[1] == "n=4 group=2"
    code, out, _ = run(capsys, monkeypatch, ["verify"], stdin_text=out)
    assert code == 0
    assert out.splitlines()[0] == "DRACKN n=4 r=2 c=2 delta=-2 theta=1 tau=-3"


def test_verify_from_file(capsys, monkeypatch, tmp_path):
    cover = cover_933(capsys, monkeypatch)
    path = tmp_path / "c.cover"
    path.write_text(cover)
    code, out, _ = run(capsys, monkeypatch, ["verify", str(path)])
    assert code == 0 and out == VERIFY_933


def test_verify_failure_exit_1(capsys, monkeypatch):
    # all-identity arc table: expansion is disconnected
    n = 5
    rows = ["DRACKN-COVER v1", f"n={n} group=2"]
    for u in range(n):
        rows.append(" ".join("." if u == v else "0" for v in range(n)))
    code, out, err = run(capsys, monkeypatch, ["verify"], stdin_text="\n".join(rows) + "\n")
    assert code == 1
    assert out.startswith("FAIL not-connected")
    assert err == ""


@pytest.mark.parametrize(
    "p, change, line",
    [
        (5, "one-arc", "pair 0,17 has 6 common neighbours, pair (0, 6) has 5"),
        (5, "switch", "pair 5,55 has 3 common neighbours, pair (0, 6) has 5"),
        (7, "one-arc", "pair 0,23 has 8 common neighbours, pair (0, 8) has 7"),
        (7, "switch", "pair 7,15 has 8 common neighbours, pair (0, 8) has 7"),
    ],
    ids=["ts52-one-arc", "ts52-switch", "ts72-one-arc", "ts72-switch"],
)
def test_verify_failure_lines(capsys, monkeypatch, p, change, line):
    # a one-arc change fails at fibre 0, on its column histograms; a switch
    # that keeps those fails at a later fibre, in the count kernel
    f = thas_somma(p, 2)
    table = one_arc_change(f, 3, 7) if change == "one-arc" else fibre_zero_switches(f, 1)[0]
    code, out, err = run(capsys, monkeypatch, ["verify"], stdin_text=emit_cover(table))
    assert (code, out, err) == (1, f"FAIL not-distance-regular {line}\n", "")


@pytest.mark.parametrize("error", [RoutesDisagreeError("two results differ"), DracknError("bug")])
def test_internal_error_exit_3(capsys, monkeypatch, error):
    cover = cover_933(capsys, monkeypatch)

    def broken(_):
        raise error

    monkeypatch.setattr("drackn.covers.drackn_verify", broken)
    code, out, err = run(capsys, monkeypatch, ["verify"], stdin_text=cover)
    assert code == 3
    assert out == ""
    assert err == f"INTERNAL {error}\n"


def test_verify_malformed_input_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["verify"], stdin_text="garbage\n")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_subcommand_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["bogus"])
    assert code == 2
    assert err != ""
    code, _, _ = run(capsys, monkeypatch, [])
    assert code == 2


def test_feasible_pass_line(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["feasible", "276", "4", "56"])
    assert code == 0
    assert out == "PASS n=276 r=4 c=56 delta=50 theta=55 tau=-5 m_theta=69 m_tau=759\n"
    assert err == ""


def test_feasible_fail_lines(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["feasible", "6", "3", "1"])
    assert code == 1
    assert out == (
        "FAIL (a) need 1 <= 2 <= 4 <= 3\n"
        "FAIL (b) m_theta=6-2/7*sqrt(21) m_tau=6+2/7*sqrt(21)\n"
        "FAIL (c) eigenvalues-not-integral\n"
        "FAIL (e) n even but c=1 odd\n"
        "FAIL (f) n-r=3 divisibility/size fails\n"
    )
    assert err == ""


def test_feasible_single_condition(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["feasible", "276", "8", "28"])
    assert code == 1
    assert out == "FAIL (i) theta+1=56 does not divide c=28\n"


def test_enumerate_tsv_matches_library(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["enumerate", "--case", "IIb", "--t-max", "21", "--tsv"]
    )
    assert code == 0
    assert out == rows_to_tsv(family_enumerate("II.b", 21))
    assert len(out.splitlines()) == 11  # header + ten published rows


def test_enumerate_two_graph_filter(capsys, monkeypatch):
    base = ["enumerate", "--case", "Ib", "--t-max", "9", "--tsv"]
    code, out, _ = run(capsys, monkeypatch, base)
    assert code == 0
    rows = family_enumerate("I.b", 9)
    kept = tuple(row for row in rows if "two-graph" not in row.flags)
    assert out == rows_to_tsv(kept)
    code, full, _ = run(capsys, monkeypatch, base + ["--include-two-graph"])
    assert full == rows_to_tsv(rows)
    assert len(full.splitlines()) == len(out.splitlines()) + 5


def test_enumerate_keeps_unpublished_rows(capsys, monkeypatch):
    base = ["enumerate", "--case", "Ib", "--t-max", "6", "--tsv"]
    _, out, _ = run(capsys, monkeypatch, base)
    assert "unpublished" in out  # the 595-family rows are flagged, not dropped
    # the option that asked for this default no longer exists
    code, _, err = run(capsys, monkeypatch, base + ["--include-unpublished"])
    assert code == 2 and "unrecognized arguments" in err


def test_enumerate_human_table(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["enumerate", "--case", "IIa", "--t-max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "case", "t", "n", "r", "c", "delta", "theta", "tau", "m_theta", "m_tau", "flags",
    ]
    assert lines[1].split() == ["II.a", "2", "9", "3", "3", "-2", "2", "-4", "12", "6", "-"]
    assert len(lines) == 2


def test_parameter_commands_output_is_pinned(capsys, monkeypatch):
    # every (n, r, c) with n <= 30, r <= 6, c <= 8 (1,046 of the 1,160 with
    # surd eigenvalues), then each family's table in both layouts, hashed as
    # one sha256 of "argv / exit code / stdout stderr"
    argvs = [
        ["feasible", str(n), str(r), str(c)]
        for n in range(2, 31) for r in range(2, 7) for c in range(1, 9)
    ]
    for case in ("Ia", "Ib", "IIa", "IIb"):
        base = ["enumerate", "--case", case, "--t-max", "12"]
        argvs += [base + ["--tsv", "--include-two-graph"], base]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, monkeypatch, argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == "21a2eafa8cf233158ad250959f53479666f175eb85c7d43b9f09f847d2f9f0a4"


def _seidel_changes(text: str) -> tuple[str, str]:
    """The first n + 2 lines of a SEIDEL text with S[0, 2] times zeta (times
    -1 for r=generic) and S[2, 0] conjugated with it, then with S[0, 2]
    alone changed: a Hermitian change and a non-Hermitian one."""
    lines = text.splitlines()
    r = lines[1].split("r=")[1]
    n = int(lines[1].split()[0].removeprefix("n="))
    rows = [row.split() for row in lines[2:2 + n]]
    if r == "generic":
        new = {"1": "-1", "-1": "1"}[rows[0][2]]
        mate = new
    else:
        k = (int(rows[0][2]) + 1) % int(r)
        new, mate = str(k), str(-k % int(r))
    out = []
    for both in (True, False):
        changed = [list(row) for row in rows]
        changed[0][2] = new
        if both:
            changed[2][0] = mate
        out.append("\n".join(lines[:2] + [" ".join(row) for row in changed]) + "\n")
    return out[0], out[1]


def test_bridge_commands_output_is_pinned(capsys, monkeypatch):
    # the cover <-> lines and cover <-> GH bridges and quotients on ts32,
    # ts52, dcff13 and the (6, 2, 2) cover of the Paley conference matrix of
    # order 6, and on one-arc (one-entry) changes of each input, hashed as one
    # sha256 of "input / argv / exit code / stdout stderr"
    paley = (
        "SEIDEL v1\nn=6 r=generic\n"
        ". 1 1 1 1 1\n1 . 1 -1 -1 1\n1 1 . 1 -1 -1\n"
        "1 -1 1 . 1 -1\n1 -1 -1 1 . 1\n1 1 -1 -1 1 .\n"
    )
    covers = {}
    for name, construct in (
        ("ts32", ["thas-somma", "-p", "3", "-m", "2"]),
        ("ts52", ["thas-somma", "-p", "5", "-m", "2"]),
        ("dcff13", ["dcff", "-t", "1", "-d", "3"]),
    ):
        covers[name] = run(capsys, monkeypatch, ["construct", *construct])[1]
    covers["conf6"] = run(capsys, monkeypatch, ["lines-to-cover", "--r", "2"], paley)[1]
    for name in list(covers):
        arc = parse_cover(covers[name])
        covers[name + "-changed"] = emit_cover(one_arc_change(arc, 1, 2))
    subgroups = {"ts32": ["1"], "ts52": ["1"], "dcff13": ["1,0,0", "1,0,0;0,1,1"], "conf6": ["1"]}
    runs = []
    seidels = {"paley6-generic": paley, "paley6-read-as-r2": paley.replace("r=generic", "r=2")}
    ghs = {"one-row": "GH v1\nn=1 group=1\n0\n"}
    for name, cover in covers.items():
        for which in ("tau", "theta", "both"):
            for char in ("1", "2"):
                for gram in ([], ["--full-gram"]):
                    argv = ["cover-to-lines", "--which", which, "--char", char, *gram]
                    runs.append((name, argv, cover))
        runs.append((name, ["cover-to-gh"], cover))
        for sub in subgroups[name.removesuffix("-changed")]:
            runs.append((name, ["quotient", "--subgroup", sub], cover))
        code, seidel, _ = run(capsys, monkeypatch, ["cover-to-lines", "--char", "1"], cover)
        if code == 0:
            seidels[name] = seidel
            seidels[name + "-entry"], seidels[name + "-not-hermitian"] = _seidel_changes(seidel)
        code, gh, _ = run(capsys, monkeypatch, ["cover-to-gh"], cover)
        if code == 0:
            arc = parse_cover(cover)
            changed = one_arc_change(arc, 1, 2).index
            ghs[name] = gh
            ghs[name + "-entry"] = emit_gh(GHMatrix(arc.group, np.maximum(changed, 0)))
            rows = gh.splitlines()  # row 1 written backwards
            ghs[name + "-reversed"] = "\n".join(rows[:3] + [rows[3][::-1]] + rows[4:]) + "\n"
    seidels["paley6-entry"], seidels["paley6-not-hermitian"] = _seidel_changes(paley)
    for name, seidel in seidels.items():
        for r in ("2", "3", "5"):
            runs.append((name, ["lines-to-cover", "--r", r], seidel))
    for name, gh in ghs.items():
        runs.append((name, ["gh-to-cover"], gh))
    digest = hashlib.sha256()
    for name, argv, stdin_text in runs:
        code, out, err = run(capsys, monkeypatch, argv, stdin_text)
        digest.update(f"{name}\n{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert len(runs) == 172
    assert digest.hexdigest() == "29ffdd5f31adf15939b6a1fb3445f62638fb56f018e09356e62be71464ceb262"


def _ingredient_runs() -> list[tuple[str, list[str], str, bool]]:
    """(name, argv, stdin, stderr pinned) for ``construct`` on FORM, SKEW and
    LATIN files: emitted ingredients, their re-spaced, tab and CRLF copies,
    one-entry changes that break an axiom, and headers over the size limit.
    Stderr is left out only for oversized headers whose rows are missing or
    over a p that is not prime: which refusal they get depends on whether
    the size or the rows are checked first."""
    pencil_s2 = AlternatingForm(2, 4, 2, (
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        ((0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
    ))
    texts = {}

    def add(name, argv, text, changes):
        # the emitted text, and copies whose first row is ``changes(entries)[label]``
        texts[name] = (argv, text)
        head, rows = text.splitlines()[:2], text.splitlines()[2:]
        for label, entries in changes(rows[0].split()).items():
            changed = head + [" ".join(entries)] + rows[1:]
            texts[f"{name}-{label}"] = (argv, "\n".join(changed) + "\n")

    forms = [standard_symplectic(p, m) for p, m in ((2, 2), (3, 2), (5, 2), (7, 2), (2, 4), (3, 4))]
    for form in forms + [pencil_s2]:
        argv = ["thas-somma", "-p", str(form.p), "-m", str(form.m), "-s", str(form.s), "--form"]
        add(f"form{form.p}{form.m}{form.s}", argv, emit_form(form), lambda row: {
            "diagonal": ["1"] + row[1:],
            "alternating": row[:1] + [str((int(row[1]) + 1) % form.p)] + row[2:],
        })
    for t, d in ((1, 1), (1, 3), (2, 1), (1, 5), (3, 1)):
        argv = ["dcff", "-t", str(t), "-d", str(d), "--skew"]
        add(f"skew{t}{d}", argv, emit_skew(default_skew(t, d)), lambda row: {  # flip a constant term
            "entry": [str(1 - int(row[0][0])) + row[0][1:]] + row[1:],
        })
    for t, d in ((1, 1), (2, 1), (1, 3), (3, 1)):
        argv = ["dcff", "-t", str(t), "-d", str(d), "--latin"]
        add(f"latin{t}{d}", argv, emit_latin(default_latin(t)), lambda row: {  # repeat an element
            "entry": row[1:2] * 2 + row[2:],
        })
    runs = []
    for name, (argv, text) in texts.items():
        argv = ["construct", *argv, "-"]
        runs.append((name, argv, text, True))
        if name[-1].isdigit():  # emitted: the same rows with other spacing and line ends
            head, body = text.split("\n", 2)[:2], text.split("\n", 2)[2]
            for label, copy in (
                ("respaced", " " + body.replace(" ", "  ").replace("\n", " \n ")),
                ("tabs", body.replace(" ", "\t")),
            ):
                runs.append((f"{name}-{label}", argv, "\n".join(head) + "\n" + copy, True))
            runs.append((name + "-crlf", argv, text.replace("\n", "\r\n"), True))
    zeros = lambda m: "".join(" ".join(["0"] * m) + "\n" for _ in range(m))
    bits = ",".join("0" * 11)
    oversized = [
        ("form37", ["thas-somma", "-p", "3", "-m", "7", "--form"],
         "FORM v1\np=3 m=7 s=1\n" + zeros(7), True),
        ("form2053", ["thas-somma", "-p", "2053", "-m", "1", "--form"],
         "FORM v1\np=2053 m=1 s=1\n0\n", True),
        ("form-17-digit-prime", ["thas-somma", "-p", "10000000000000061", "-m", "2", "--form"],
         "FORM v1\np=10000000000000061 m=2 s=1\n0 1\n-1 0\n", True),
        ("form46-not-prime", ["thas-somma", "-p", "4", "-m", "6", "--form"],
         "FORM v1\np=4 m=6 s=1\n" + zeros(6), False),
        ("form-no-rows", ["thas-somma", "-p", "3", "-m", "100", "--form"],
         "FORM v1\np=3 m=100 s=1\n", False),
        ("skew33", ["dcff", "-t", "3", "-d", "3", "--skew"], emit_skew(default_skew(3, 3)), True),
        ("skew1-11", ["dcff", "-t", "1", "-d", "11", "--skew"],
         "SKEW v1\nt=1 d=11\n" + (" ".join([bits] * 11) + "\n") * 11, True),
        ("skew-no-rows", ["dcff", "-t", "1000", "-d", "1001", "--skew"],
         "SKEW v1\nt=1000 d=1001\n", False),
        ("latin12", ["dcff", "-t", "12", "-d", "1", "--latin"], "LATIN v1\nt=12\n0 1\n", True),
        ("latin-huge", ["dcff", "-t", "1", "-d", "1", "--latin"], "LATIN v1\nt=100000\n", True),
    ]
    runs += [(name, ["construct", *argv, "-"], text, pin) for name, argv, text, pin in oversized]
    return runs


def test_ingredient_commands_output_is_pinned(capsys, monkeypatch):
    # construct thas-somma --form and construct dcff --skew/--latin, hashed as
    # one sha256 of "name / argv / exit code / stdout", with stderr for every
    # run whose rows are read (accepted, refused by an axiom or for size)
    runs = _ingredient_runs()
    digest = hashlib.sha256()
    for name, argv, stdin_text, pin_err in runs:
        code, out, err = run(capsys, monkeypatch, argv, stdin_text)
        digest.update(f"{name}\n{' '.join(argv)}\n{code}\n{out}{err if pin_err else ''}".encode())
    assert len(runs) == 97
    assert digest.hexdigest() == "09802a77664b7be427c379fa993a6ff72f49fd33d1dcefbdb4d8e92553feb2f3"


def test_jobs_is_not_an_option(capsys, monkeypatch):
    argv = ["enumerate", "--case", "Ib", "--t-max", "4"]
    code, out, err = run(capsys, monkeypatch, ["--jobs", "2"] + argv)
    assert code == 2 and out == ""
    assert "error: argument SUBCOMMAND: invalid choice: '2'" in err
    code, out, err = run(capsys, monkeypatch, argv + ["--jobs", "2"])
    assert code == 2 and out == ""
    assert err.endswith("error: unrecognized arguments: --jobs 2\n")


def test_cover_to_lines_reports(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    code, out, err = run(
        capsys, monkeypatch, ["cover-to-lines", "--char", "1"], stdin_text=cover
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "SEIDEL v1"
    assert lines[1] == "n=9 r=3"
    assert lines[11] == LINESET_TAU
    assert lines[12] == LINESET_THETA
    assert len(lines) == 13


def test_cover_to_lines_which_and_gram(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["cover-to-lines", "--char", "1", "--which", "theta"],
        stdin_text=cover,
    )
    assert code == 0
    assert LINESET_THETA in out and "LINESET tau" not in out
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["cover-to-lines", "--char", "1", "--which", "tau", "--full-gram"],
        stdin_text=cover,
    )
    assert code == 0
    assert "GRAM tau n=9 d=6 alpha_sq=1/16 field=complex" in out
    assert "GRAM theta" not in out


@pytest.mark.parametrize(
    "construct, char, digest",
    [
        (["thas-somma", "-p", "3", "-m", "2"], "1",
         "50ba721bf0e19116ec601c1e09d599408b4c07aa06cdb1a9fe3afd6aa1636f48"),
        (["thas-somma", "-p", "5", "-m", "2"], "2",
         "6a1ee321e5be2d4efe700c5c95401685f02d910b0ac68b12efa32eebadf53549"),
        (["dcff", "-t", "1", "-d", "3"], "5",
         "06b9c2b5443fd47e252b1517d3afae19ba38e0ee674544bbabe2bc6b36a535fb"),
    ],
    ids=["ts32", "ts52", "dcff13"],
)
def test_full_gram_output_is_pinned(capsys, monkeypatch, construct, char, digest):
    # sha256 of the stdout as the exact CycNum/ExactMatrix Gram display printed it
    code, cover, _ = run(capsys, monkeypatch, ["construct", *construct])
    assert code == 0
    code, out, err = run(
        capsys, monkeypatch, ["cover-to-lines", "--char", char, "--full-gram"], stdin_text=cover
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lines_round_trip_pipeline(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    _, seidel_out, _ = run(
        capsys, monkeypatch, ["cover-to-lines", "--char", "1"], stdin_text=cover
    )
    # the payload plus report lines is directly consumable downstream
    code, out, err = run(
        capsys, monkeypatch, ["lines-to-cover", "--r", "3"], stdin_text=seidel_out
    )
    assert code == 0
    assert err == "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\n"
    code, out2, _ = run(capsys, monkeypatch, ["verify"], stdin_text=out)
    assert code == 0 and out2 == VERIFY_933


def test_lines_to_cover_failure_modes(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    _, seidel_out, _ = run(
        capsys, monkeypatch, ["cover-to-lines", "--char", "1"], stdin_text=cover
    )
    # negate by swapping exponents 1 <-> 2 would stay a cover; instead ask for
    # a non-prime index (unsupported) and a wrong prime (parameters fail)
    code, out, err = run(
        capsys, monkeypatch, ["lines-to-cover", "--r", "4"], stdin_text=seidel_out
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_gh_round_trip_cli(capsys, monkeypatch):
    cover = cover_933(capsys, monkeypatch)
    code, gh_out, err = run(capsys, monkeypatch, ["cover-to-gh"], stdin_text=cover)
    assert code == 0 and err == ""
    assert gh_out.splitlines()[0] == "GH v1"
    assert gh_out.splitlines()[1] == "n=9 group=3"
    code, out, err = run(capsys, monkeypatch, ["gh-to-cover"], stdin_text=gh_out)
    assert code == 0
    assert out == cover
    assert err == "DRACKN n=9 r=3 c=3 delta=-2 theta=2 tau=-4\n"


def test_gh_to_cover_trivial_group_is_unsupported(capsys, monkeypatch):
    # the all-zero table over the trivial group passes every GH check
    gh = "GH v1\nn=2 group=1\n0 0\n0 0\n"
    code, out, err = run(capsys, monkeypatch, ["gh-to-cover"], stdin_text=gh)
    assert (code, out, err) == (2, "", "error: verification needs fibre size r >= 2\n")


def test_quotient_cli(capsys, monkeypatch):
    code, cover, _ = run(capsys, monkeypatch, ["construct", "dcff", "-t", "1", "-d", "3"])
    assert code == 0
    code, quot, err = run(
        capsys, monkeypatch, ["quotient", "--subgroup", "1,0,0"], stdin_text=cover
    )
    assert code == 0 and err == ""
    assert quot.splitlines()[1] == "n=16 group=2,2"
    code, out, _ = run(capsys, monkeypatch, ["verify"], stdin_text=quot)
    assert code == 0
    assert out.splitlines()[0] == "DRACKN n=16 r=4 c=4 delta=-2 theta=3 tau=-5"


def test_quotient_malformed_subgroup(capsys, monkeypatch):
    code, cover, _ = run(capsys, monkeypatch, ["construct", "dcff", "-t", "1", "-d", "1"])
    code, out, err = run(
        capsys, monkeypatch, ["quotient", "--subgroup", "1,x"], stdin_text=cover
    )
    assert code == 2 and err.startswith("error:")


def test_construct_with_ingredient_files(capsys, monkeypatch, tmp_path):
    form_path = tmp_path / "f.form"
    form_path.write_text(emit_form(standard_symplectic(3, 2)))
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["construct", "thas-somma", "-p", "3", "-m", "2", "--form", str(form_path)],
    )
    assert code == 0
    assert out == cover_933(capsys, monkeypatch)

    skew_path = tmp_path / "s.skew"
    skew_path.write_text(emit_skew(default_skew(1, 1)))
    latin_path = tmp_path / "l.latin"
    latin_path.write_text(emit_latin(default_latin(1)))
    code, custom, _ = run(
        capsys,
        monkeypatch,
        [
            "construct", "dcff", "-t", "1", "-d", "1",
            "--skew", str(skew_path), "--latin", str(latin_path),
        ],
    )
    assert code == 0
    _, default, _ = run(capsys, monkeypatch, ["construct", "dcff", "-t", "1", "-d", "1"])
    assert custom == default


def test_construct_missing_ingredient_file(capsys, monkeypatch, tmp_path):
    code, out, err = run(
        capsys,
        monkeypatch,
        [
            "construct", "thas-somma", "-p", "3", "-m", "2",
            "--form", str(tmp_path / "absent.form"),
        ],
    )
    assert code == 2 and err.startswith("error: cannot read")


def test_construct_refuses_s_outside_one_to_m(capsys, monkeypatch):
    argv = ["construct", "thas-somma", "-p", "3", "-m", "2", "-s", "0"]
    code, out, err = run(capsys, monkeypatch, argv)
    assert (code, out, err) == (2, "", "error: need 1 <= s <= m, got s=0, m=2\n")


@pytest.mark.parametrize(
    "argv, what, fibres",
    [
        (["thas-somma", "-p", "2", "-m", "20"], "a form pencil on GF(2)^20", "2^20"),
        (["thas-somma", "-p", "3", "-m", "1000000000"], "a form pencil on GF(3)^1000000000",
         "3^1000000000"),
        (["thas-somma", "-p", "2", "-m", "12", "--form", "FORM"], "a form pencil on GF(2)^12",
         "2^12"),
        (["dcff", "-t", "10", "-d", "1"], "dcff(t=10, d=1)", "2^20"),
        (["dcff", "-t", "1", "-d", "11"], "dcff(t=1, d=11)", "2^12"),
        (["dcff", "-t", "1", "-d", "13", "--skew", "SKEW"], "dcff(t=1, d=13)", "2^14"),
    ],
    ids=["ts2_20", "ts3_huge", "form2_12", "dcff10_1", "dcff1_11", "skew1_13"],
)
def test_construct_size_limit(capsys, monkeypatch, tmp_path, argv, what, fibres):
    # sizes that reach the fibre limit and nothing else: the large job never starts
    def refuse(*args):
        raise AssertionError("built an ingredient of an oversized cover")

    monkeypatch.setattr(constructions, "default_skew", refuse)
    monkeypatch.setattr(constructions, "default_latin", refuse)
    monkeypatch.setattr(constructions.SkewProduct, "validate", refuse)
    form = tmp_path / "big.form"
    form.write_text("FORM v1\np=2 m=12 s=1\n" + "0 0 0 0 0 0 0 0 0 0 0 0\n" * 12)
    # GF(2^13) has no fixed modulus, but a SKEW file is read without one
    skew = tmp_path / "big.skew"
    skew.write_text("SKEW v1\nt=1 d=13\n" + (" ".join(["0," * 12 + "1"] * 13) + "\n") * 13)
    files = {"FORM": str(form), "SKEW": str(skew)}
    argv = ["construct"] + [files.get(a, a) for a in argv]
    code, out, err = run(capsys, monkeypatch, argv)
    assert (code, out) == (2, "")
    limit = f"gives a cover with {fibres} fibres, more than the limit of 2048"
    assert err == f"error: {what} {limit}\n"


@pytest.mark.parametrize(
    "argv, text, what",
    [
        (["verify"], "DRACKN-COVER v1\nn=2 group=1000000000\n. 1\n999999999 .\n",
         "the order of group=1000000000"),
        (["verify"], "DRACKN-COVER v1\nn=2 group=2,1000000000\n. 0,1\n0,999999999 .\n",
         "the order of group=2,1000000000"),
        (["gh-to-cover"], "GH v1\nn=2 group=1000000000\n0 1\n999999999 0\n",
         "the order of group=1000000000"),
        (["lines-to-cover", "--r", "3"], "SEIDEL v1\nn=2 r=1000000007\n. 1\n1 .\n",
         "r=1000000007"),
    ],
    ids=["cover", "cover-product", "gh", "seidel"],
)
def test_group_order_above_size_limit(capsys, monkeypatch, argv, text, what):
    # sizes that reach the budget and nothing else: no table of the group is built
    code, out, err, peak = run_peak(capsys, monkeypatch, argv, stdin_text=text)
    assert (code, out, err) == (2, "", f"error: {what} is above the size limit of 2048\n")
    assert peak < 1 << 20, peak


def test_group_order_at_size_limit_is_read(capsys, monkeypatch):
    # Z/2048 passes the budget and is refused later, as a deck group, with
    # only its O(r) negation table built (the addition table took 128 MB)
    text = "DRACKN-COVER v1\nn=2 group=2048\n. 1\n2047 .\n"
    code, out, err, peak = run_peak(capsys, monkeypatch, ["verify"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err == "error: deck group with orders (2048,) does not have prime exponent\n"
    assert peak < 2 << 20, peak


def test_verify_at_size_limit_builds_tables_one_factor_at_a_time(capsys, monkeypatch):
    # (Z/2)^11: the addition table is built factor by factor, with no
    # r x r x 11 coordinate array (448 MB before, 66 MB after; the table
    # itself is 32 MB)
    group, e = ",".join(["2"] * 11), ",".join(["0"] * 10 + ["1"])
    text = f"DRACKN-COVER v1\nn=2 group={group}\n. {e}\n{e} .\n"
    code, out, err, peak = run_peak(capsys, monkeypatch, ["verify"], stdin_text=text)
    assert (code, out, err) == (1, "FAIL not-connected no path joins 0 and 1\n", "")
    assert peak < 96 << 20, peak


def test_construct_refuses_zero_characteristic(capsys, monkeypatch):
    # the default form is built before AlternatingForm checks p
    code, out, err = run(capsys, monkeypatch, ["construct", "thas-somma", "-p", "0", "-m", "2"])
    assert (code, out, err) == (2, "", "error: p must be prime, got 0\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["verify"], "DRACKN-COVER v1\nn=-1 group=3\nx\n"),
        (["lines-to-cover", "--r", "3"], "SEIDEL v1\nn=-1 r=3\nx\n"),
        (["gh-to-cover"], "GH v1\nn=-1 group=3\nx\n"),
    ],
    ids=["cover", "seidel", "gh"],
)
def test_negative_n_is_malformed_input(capsys, monkeypatch, argv, text):
    # once read as an empty matrix: FAIL too-small / not-square with exit 1
    code, out, err = run(capsys, monkeypatch, argv, stdin_text=text)
    assert code == 2 and out == "" and err.startswith("error:")


def test_global_seed_removed(capsys, monkeypatch):
    # no command is randomized, so there is no global --seed
    code, out, err = run(capsys, monkeypatch, ["--seed", "7", "feasible", "9", "3", "3"])
    assert code == 2 and out == "" and "error:" in err


def checkout_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports drackn from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def python_run(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing drackn from this checkout."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=checkout_env(), timeout=120
    )


def python_last_line(script: str) -> str:
    """Run ``script`` in a fresh interpreter; return the last line it prints."""
    proc = python_run("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        (["feasible", "276", "4", "56"], 0, False),
        (["feasible", "46", "16", "2"], 1, False),
        (["enumerate", "--case", "IIb", "--t-max", "21", "--tsv"], 0, False),
        (["enumerate", "--case", "Ib", "--t-max", "9", "--include-two-graph"], 0, False),
        (["--help"], 0, False),
        (["construct", "thas-somma", "-p", "3", "-m", "2"], 0, True),
    ],
    ids=["feasible-pass", "feasible-fail", "enumerate-tsv", "enumerate-table", "help", "construct"],
)
def test_table_commands_never_load_numpy(argv, code, loads_numpy):
    # the lazy stub sits in sys.modules["numpy"]; a loaded numpy has submodules
    script = (
        "import sys\n"
        "from drackn.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "print(code, any(k.startswith('numpy.') for k in sys.modules))\n"
    )
    assert python_last_line(script) == f"{code} {loads_numpy}"


@pytest.mark.parametrize(
    "script, last",
    [
        ("import numpy, drackn.covers\nprint(drackn.covers.np is numpy)", "True"),
        (
            "import drackn.cli, drackn.covers\nimport numpy.linalg\n"
            "print(numpy.zeros(2).tolist(), drackn.covers.np is numpy)",
            "[0.0, 0.0] True",
        ),
        (
            "import sys\nsys.modules['numpy'] = None\n"
            "try:\n    import drackn.cli\nexcept ModuleNotFoundError as e:\n    print(e.name)",
            "numpy",
        ),
        (
            "import importlib.util\nimportlib.util.find_spec = lambda name, package=None: None\n"
            "try:\n    import drackn.cli\nexcept ModuleNotFoundError as e:\n    print(e.name)",
            "numpy",
        ),
        (
            "import sys, types, drackn\ndrackn._lazy_import('numpy')\n"
            "print(type(sys.modules['numpy']) is types.ModuleType)",
            "False",
        ),
    ],
    ids=["numpy-first", "numpy-after", "numpy-none", "numpy-not-found", "numpy-pending"],
)
def test_lazy_numpy_binding(script, last):
    assert python_last_line(script) == last


# -- module footprint: each command executes only the modules it uses -----------

MODULES = sorted(p.stem for p in (ROOT / "src" / "drackn").glob("*.py") if p.stem != "__init__")
TABLE_MODULES = {"cli", "errors", "feasibility", "quadratic", "arith"}
EXACT_ORACLES = {"cyclotomic", "exact_matrix"}
NOT_TABLES = set(MODULES) - TABLE_MODULES
NOT_VERIFY = {"constructions", "lines"} | EXACT_ORACLES


@pytest.fixture(scope="module")
def payload_files(tmp_path_factory) -> dict[str, str]:
    """Paths of a cover, an all-identity table (its expanded graph is not
    connected), a deck-group-(Z/2)^3 cover, a Seidel and a GH file."""
    texts = {
        "cover": emit_cover(thas_somma(3, 2)),
        "disconnected": "DRACKN-COVER v1\nn=3 group=2\n. 0 0\n0 . 0\n0 0 .\n",
        "cover8": emit_cover(dcff(1, 3)),
        "seidel": emit_seidel(cover_to_lines(thas_somma(3, 2)).seidel),
        "gh": emit_gh(cover_to_gh(thas_somma(3, 2))),
    }
    folder = tmp_path_factory.mktemp("payloads")
    for name, text in texts.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in texts}


@pytest.mark.parametrize(
    "argv, code, never",
    [
        (["--help"], 0, NOT_TABLES),
        (["feasible", "276", "4", "56"], 0, NOT_TABLES),
        (["feasible", "46", "16", "2"], 1, NOT_TABLES),
        (["enumerate", "--case", "IIb", "--t-max", "21", "--tsv"], 0, NOT_TABLES),
        (["verify", "{cover}"], 0, NOT_VERIFY),
        (["verify", "{disconnected}"], 1, NOT_VERIFY),
        (["quotient", "{cover8}", "--subgroup", "1,0,0"], 0, NOT_VERIFY),
        (["construct", "thas-somma", "-p", "3", "-m", "2"], 0, EXACT_ORACLES),
        (["construct", "dcff", "-t", "1", "-d", "3"], 0, EXACT_ORACLES),
        (["cover-to-lines", "{cover}", "--char", "1", "--full-gram"], 0, EXACT_ORACLES),
        (["lines-to-cover", "{seidel}", "--r", "3"], 0, EXACT_ORACLES),
        (["cover-to-gh", "{cover}"], 0, EXACT_ORACLES),
        (["gh-to-cover", "{gh}"], 0, EXACT_ORACLES),
    ],
    ids=[
        "help", "feasible-pass", "feasible-fail", "enumerate", "verify", "verify-fail", "quotient",
        "construct-ts", "construct-dcff", "cover-to-lines", "lines-to-cover",
        "cover-to-gh", "gh-to-cover",
    ],
)
def test_each_command_executes_only_its_modules(payload_files, argv, code, never):
    # a registered module that never ran is still importlib's lazy subclass;
    # numpy.ma (np.unique imports it) costs about 18 ms, and no command needs it
    argv = [arg.format(**payload_files) for arg in argv]
    script = (
        "import sys, types\n"
        "from drackn.cli import main\n"
        f"code = main({argv!r})\n"
        "ran = [k for k, m in sys.modules.items() if k.startswith('drackn.')\n"
        "       and type(m) is types.ModuleType]\n"
        "print(code, 'numpy.ma' in sys.modules,\n"
        "      ' '.join(sorted(k.removeprefix('drackn.') for k in ran)))\n"
    )
    got_code, masked, *ran = python_last_line(script).split(" ")
    assert (int(got_code), masked) == (code, "False")
    assert "cli" in ran and not set(ran) & never


def test_import_registers_every_module_without_running_it():
    # perfbench/run.py and perfbench/spans.py read sys.modules["drackn.<name>"]
    # right after `import drackn.cli`, and monkeypatch paths resolve through
    # the package attributes
    script = (
        "import sys, types, drackn, drackn.cli\n"
        f"names = {MODULES!r}\n"
        "bad = [n for n in names if sys.modules.get('drackn.' + n) is not getattr(drackn, n, 0)]\n"
        "ran = [n for n in names if type(sys.modules['drackn.' + n]) is types.ModuleType]\n"
        "print(bad, ran)\n"
    )
    assert python_last_line(script) == "[] ['cli']"


def test_closed_pipe_exits_quietly(tmp_path):
    """``cover-to-lines --full-gram | head -1``: the reader closes stdout
    after one line of several MB; the writer drops the rest and exits 141,
    with no traceback and no FAIL code."""
    cover = tmp_path / "ts28"
    cover.write_text(emit_cover(thas_somma(2, 8)))
    argv = ["-m", "drackn.cli", "cover-to-lines", "--char", "1", "--full-gram", str(cover)]
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env()
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert first == b"SEIDEL v1\n"
    assert (proc.returncode, err) == (141, b"")


def test_lines_to_cover_refuses_r_above_size_limit(capsys, monkeypatch):
    # 2^61 - 1 is prime: is_prime's trial division took more than 20 s
    seidel = emit_seidel(cover_to_lines(thas_somma(3, 2)).seidel)
    argv = ["lines-to-cover", "--r", str(2**61 - 1)]
    code, out, err = run(capsys, monkeypatch, argv, stdin_text=seidel)
    assert (code, out) == (2, "")
    assert err == "error: deck order r = 2305843009213693951 is above the size limit of 2048\n"


def test_run_as_module_writes_nothing_to_stderr():
    # runpy warns when the module it runs is already in sys.modules
    proc = python_run("-m", "drackn.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: drackn") and proc.stderr == ""
