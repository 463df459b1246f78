"""Command-line surface: construct, verify, convert, and enumerate.

Every subcommand is pure text I/O: identical inputs produce byte-identical
outputs.  Matrix payloads (cover / Seidel / generalized Hadamard files) go to
stdout; one-line reports accompanying a payload go to stderr so payloads stay
pipeable.  Exit codes: 0 success, 1 verification or feasibility failure (with
a machine-readable ``FAIL <condition> <witness>`` line on stdout), 2 malformed
input or unsupported request (message on stderr), 3 internal consistency
failure (an ``INTERNAL <message>`` line on stderr), 141 (128 + SIGPIPE)
when the reader closed stdout before the output was written.  No command
is randomized.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import constructions, covers, errors, feasibility, formats, lines

_CASE_MAP = {"Ia": "I.a", "Ib": "I.b", "IIa": "II.a", "IIb": "II.b"}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise errors.FormatError(f"cannot read {path}: {exc}") from None


def _drackn_line(p: feasibility.ParameterSet) -> str:
    return (
        f"DRACKN n={p.n} r={p.r} c={p.c} delta={p.delta} "
        f"theta={feasibility._fmt(p.theta)} tau={feasibility._fmt(p.tau)}"
    )


# -- subcommand bodies ---------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.family == "thas-somma":
        form = formats.parse_form(_read_input(args.form)) if args.form else None
        arc = constructions.thas_somma(args.p, args.m, args.s, form=form)
    else:
        skew = formats.parse_skew(_read_input(args.skew)) if args.skew else None
        latin = formats.parse_latin(_read_input(args.latin)) if args.latin else None
        arc = constructions.dcff(args.t, args.d, skew=skew, latin=latin)
    sys.stdout.write(formats.emit_cover(arc))
    return 0


def _cmd_verify(args) -> int:
    cert = covers.drackn_verify(formats.parse_cover(_read_input(args.file)))
    print(_drackn_line(cert.params))
    print(f"SPECTRUM {cert.spectrum_str()}")
    print("CHECKS " + " ".join(cert.checks_passed))
    return 0


def _selected(which: str, cl: lines.CoverLines) -> list[tuple[str, lines.LineSet]]:
    pairs = [("tau", cl.lines_tau), ("theta", cl.lines_theta)]
    return [(label, ls) for label, ls in pairs if which in (label, "both")]


def _lineset_summary(label: str, ls: lines.LineSet) -> str:
    rel = lines.relative_bound(ls.n, ls.d)
    bound = lines.absolute_bound(ls.d, ls.field)
    # equiangular lines attain the relative bound iff they form a tight frame
    attained = "yes" if ls.alpha_sq == rel else "no"
    return (
        f"LINESET {label} n={ls.n} d={ls.d} alpha_sq={ls.alpha_sq} field={ls.field}"
        f" tight-frame={attained}"
        f" relative-bound={rel}"
        f" relative-attained={attained}"
        f" absolute-bound={bound}"
        f" absolute-attained={'yes' if ls.n == bound else 'no'}"
    )


def _cmd_cover_to_lines(args) -> int:
    cl = lines.cover_to_lines(formats.parse_cover(_read_input(args.file)), char_index=args.char)
    sys.stdout.write(formats.emit_seidel(cl.seidel))
    for label, ls in _selected(args.which, cl):
        print(_lineset_summary(label, ls))
    if args.full_gram:
        for label, ls in _selected(args.which, cl):
            sys.stdout.write(formats.emit_gram(label, ls))
    return 0


def _cmd_lines_to_cover(args) -> int:
    arc, cert = lines.lines_to_cover(formats.parse_seidel(_read_input(args.file)), args.r)
    sys.stdout.write(formats.emit_cover(arc))
    print(_drackn_line(cert.params), file=sys.stderr)
    return 0


def _cmd_cover_to_gh(args) -> int:
    h = constructions.cover_to_gh(formats.parse_cover(_read_input(args.file)))
    sys.stdout.write(formats.emit_gh(h))
    return 0


def _cmd_gh_to_cover(args) -> int:
    arc, cert = constructions.gh_to_cover(formats.parse_gh(_read_input(args.file)))
    sys.stdout.write(formats.emit_cover(arc))
    print(_drackn_line(cert.params), file=sys.stderr)
    return 0


def _parse_subgroup(text: str) -> list[tuple[int, ...]]:
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            gens.append(tuple(int(x) for x in part.split(",")))
        except ValueError:
            raise errors.FormatError(f"malformed subgroup generator {part!r}") from None
    return gens


def _cmd_quotient(args) -> int:
    arc = formats.parse_cover(_read_input(args.file))
    sys.stdout.write(formats.emit_cover(covers.quotient(arc, _parse_subgroup(args.subgroup))))
    return 0


def _cmd_feasible(args) -> int:
    report = feasibility.feasibility_battery(args.n, args.r, args.c)
    if report.passed:
        fields = report.params.format_fields()
        names = ("n", "r", "c", "delta", "theta", "tau", "m_theta", "m_tau")
        print("PASS " + " ".join(f"{k}={v}" for k, v in zip(names, fields)))
        return 0
    for cond in report.failing():
        print(f"FAIL ({cond.key}) {cond.witness}".rstrip())
    return 1


def _human_table(rows: tuple[feasibility.FamilyRow, ...]) -> str:
    if not rows:
        return "no feasible rows\n"
    header = ("case", "t", "n", "r", "c", "delta", "theta", "tau", "m_theta", "m_tau", "flags")
    table = [header]
    for row in rows:
        table.append(
            (row.case_id, str(row.t))
            + row.params.format_fields()
            + (",".join(row.flags) or "-",)
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    out = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in table
    ]
    return "\n".join(out) + "\n"


def _cmd_enumerate(args) -> int:
    rows = feasibility.family_enumerate(_CASE_MAP[args.case], args.t_max)
    if not args.include_two_graph:
        rows = tuple(row for row in rows if feasibility.FLAG_TWO_GRAPH not in row.flags)
    sys.stdout.write(feasibility.rows_to_tsv(rows) if args.tsv else _human_table(rows))
    return 0


# -- parser wiring ---------------------------------------------------------------


def _add_input(sub, help_text="input file ('-' or omitted: stdin)"):
    sub.add_argument("file", nargs="?", default="-", help=help_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drackn",
        description=(
            "Construct, verify, and interconvert antipodal covers of complete "
            "graphs and the equiangular line systems they carry."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = subs.add_parser("construct", help="build a cover from a known family")
    fams = p.add_subparsers(dest="family", metavar="FAMILY", required=True)
    ts = fams.add_parser("thas-somma", help="alternating-form cover of K_{p^m}")
    ts.add_argument("-p", type=int, required=True, help="field characteristic (prime)")
    ts.add_argument("-m", type=int, required=True, help="dimension of the point space")
    ts.add_argument("-s", type=int, default=1, help="pencil size (default 1)")
    ts.add_argument("--form", help="FORM v1 file overriding the default form pencil")
    ts.set_defaults(func=_cmd_construct)
    dc = fams.add_parser("dcff", help="characteristic-2 skew-product cover")
    dc.add_argument("-t", type=int, required=True, help="subfield degree over GF(2)")
    dc.add_argument("-d", type=int, required=True, help="extension degree (odd)")
    dc.add_argument("--skew", help="SKEW v1 file overriding the default product")
    dc.add_argument("--latin", help="LATIN v1 file overriding the default square")
    dc.set_defaults(func=_cmd_construct)

    p = subs.add_parser("verify", help="certify a cover file as an (n,r,c) cover")
    _add_input(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser(
        "cover-to-lines", help="equiangular line systems carried by a cover"
    )
    _add_input(p)
    p.add_argument("--char", type=int, required=True, help="nontrivial character index")
    p.add_argument(
        "--which",
        choices=("tau", "theta", "both"),
        default="both",
        help="which line set to report (default both)",
    )
    p.add_argument(
        "--full-gram",
        action="store_true",
        help="also emit the Gram matrices (large; derivable from the Seidel file)",
    )
    p.set_defaults(func=_cmd_cover_to_lines)

    p = subs.add_parser("lines-to-cover", help="rebuild a cover from a Seidel file")
    _add_input(p)
    p.add_argument("--r", type=int, required=True, help="cover index (prime)")
    p.set_defaults(func=_cmd_lines_to_cover)

    p = subs.add_parser(
        "cover-to-gh", help="generalized Hadamard matrix of an n=rc cover"
    )
    _add_input(p)
    p.set_defaults(func=_cmd_cover_to_gh)

    p = subs.add_parser(
        "gh-to-cover", help="cover encoded by a generalized Hadamard matrix"
    )
    _add_input(p)
    p.set_defaults(func=_cmd_gh_to_cover)

    p = subs.add_parser("quotient", help="quotient a cover by a deck subgroup")
    _add_input(p)
    p.add_argument(
        "--subgroup",
        required=True,
        help="generators, ';'-separated exponent tuples (e.g. '1,0,1;0,1,0')",
    )
    p.set_defaults(func=_cmd_quotient)

    p = subs.add_parser("feasible", help="run the parameter battery on (n, r, c)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_feasible)

    p = subs.add_parser("enumerate", help="feasible rows of one parameter family")
    p.add_argument("--case", choices=tuple(_CASE_MAP), required=True)
    p.add_argument("--t-max", type=int, required=True, help="largest t to scan")
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.add_argument(
        "--include-two-graph",
        action="store_true",
        help="also list r=2 rows (two-graph parameter sets)",
    )
    p.set_defaults(func=_cmd_enumerate)

    return parser


#: Exit code when stdout's reader has gone, as a shell reports a command
#: killed by SIGPIPE.
EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # drop what is still buffered, so that the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (errors.VerificationError, errors.CoverStructureError) as exc:
        print(f"FAIL {exc.condition} {exc.witness}".rstrip())
        return 1
    except errors.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (errors.UnsupportedError, errors.GroupMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.DracknError as exc:
        print(f"INTERNAL {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
