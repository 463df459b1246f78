"""Seeded fuzz of the command line: small mutations of valid SKEW, LATIN,
FORM, cover, SEIDEL and GH inputs end in exit code 0, 1 or 2 with a report,
never a traceback."""

from __future__ import annotations

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from drackn.cli import main
from drackn.constructions import (
    cover_to_gh,
    default_latin,
    default_skew,
    standard_symplectic,
    thas_somma,
)
from drackn.formats import emit_cover, emit_form, emit_gh, emit_latin, emit_seidel, emit_skew
from drackn.lines import cover_to_lines

CASES = {
    "skew": (["construct", "dcff", "-t", "1", "-d", "3", "--skew", "-"],
             emit_skew(default_skew(1, 3))),
    "latin": (["construct", "dcff", "-t", "2", "-d", "1", "--latin", "-"],
              emit_latin(default_latin(2))),
    "form": (["construct", "thas-somma", "-p", "3", "-m", "2", "--form", "-"],
             emit_form(standard_symplectic(3, 2))),
    "cover": (["verify"], emit_cover(thas_somma(3, 2))),
    "seidel": (["lines-to-cover", "--r", "3"],
               emit_seidel(cover_to_lines(thas_somma(3, 2), 1).seidel)),
    "gh": (["gh-to-cover"], emit_gh(cover_to_gh(thas_somma(3, 2)))),
}
ALPHABET = "0123456789,.=- \nx\t\r\u0663"  # U+0663: an Arabic-Indic 3, which int() reads


@st.composite
def mutated(draw):
    """A command and its input with 1 to 4 characters inserted, replaced or
    deleted."""
    argv, text = CASES[draw(st.sampled_from(sorted(CASES)))]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(ALPHABET))
        text = draw(st.sampled_from((
            text[:i] + c + text[i:], text[:i] + c + text[i + 1:], text[:i] + text[i + 1:]
        )))
    return argv, text


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(mutated())
def test_mutated_inputs_exit_cleanly(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 1:
        assert out.startswith("FAIL ") and err == ""
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
