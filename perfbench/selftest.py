#!/usr/bin/env python3
"""Self-tests of the benchmark's generator, checks and tracer.

    python3 perfbench/selftest.py

Kept out of the repository's test suite: they test the benchmark, not the
program.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import itertools
import sys
import time

import checks
import inputs
import run

dk, _ = run.load_program()


def ladder(rung: str):
    return inputs.build_ladder(dk.constructions, [rung])[rung]


def verify_text(text: str):
    return dk.covers.drackn_verify(dk.formats.parse_cover(text))


def test_relabelling_keeps_ts32_certificate():
    orders, entries = ladder("ts32")
    plain = checks.certificate_lines(verify_text(inputs.cover_text(orders, entries)))
    assert plain == inputs.certificate_lines(*inputs.closed_form("ts32")), plain
    for k in range(10):
        rng = inputs.rung_rng(k, "ts32", 0)
        relabelled = inputs.relabel(orders, entries, rng)
        assert relabelled != [list(row) for row in entries]
        cert = verify_text(inputs.cover_text(orders, relabelled))
        assert checks.certificate_lines(cert) == plain
        assert checks.certificate(cert, "ts32") == []


def rejection_tag(orders, table) -> str:
    try:
        verify_text(inputs.cover_text(orders, table))
    except dk.errors.VerificationError as exc:
        return exc.condition
    return "accepted"


def test_every_one_arc_change_of_ts32_and_dcff13_is_rejected():
    for rung in ("ts32", "dcff13"):
        orders, entries = ladder(rung)
        elements = list(itertools.product(*(range(d) for d in orders)))
        n = len(entries)
        for u, v in itertools.combinations(range(n), 2):
            for b in elements:
                if b != entries[u][v]:
                    tag = rejection_tag(orders, inputs.change_arc(orders, entries, u, v, b))
                    assert tag == checks.REJECT_TAG, (rung, u, v, b, tag)


def test_seeded_perturbations_are_rejected():
    for rung in ("ts32", "dcff13"):
        orders, entries = ladder(rung)
        for k in range(20):
            table = inputs.perturb(orders, entries, inputs.rung_rng(k, rung, 0))
            assert checks.rejection(rejection_tag(orders, table), rung) == []


def test_checks_flag_wrong_outputs():
    orders, entries = ladder("ts32")
    cert = verify_text(inputs.cover_text(orders, entries))
    assert checks.certificate(cert, "ts52"), "a ts32 certificate passed as ts52"
    assert checks.rejection("accepted", "ts32")
    assert checks.cli("construct-verify", [0, 0], b"DRACKN n=9\n")
    assert checks.cli("construct-verify", [0, 1], b"")


def test_generator_is_deterministic():
    orders, entries = ladder("ts32")
    a = inputs.cover_text(orders, inputs.perturb(orders, entries, inputs.rung_rng(7, "ts32", 3)))
    b = inputs.cover_text(orders, inputs.perturb(orders, entries, inputs.rung_rng(7, "ts32", 3)))
    c = inputs.cover_text(orders, inputs.perturb(orders, entries, inputs.rung_rng(8, "ts32", 3)))
    assert a == b and a != c


def test_traced_self_times_fit_inside_spans():
    tracer = run.spans.Tracer()
    tracer.phase = "pass"
    wl = run.Lines(dk, 1)
    wl.rungs = ("ts32",)
    wl.setup()
    wl.make_inputs()
    original = dk.covers.drackn_verify
    with tracer.installed():
        wrapped = dk.covers.drackn_verify
        assert wrapped is not original
        assert dk.lines.drackn_verify is wrapped and dk.constructions.drackn_verify is wrapped
        tally = run.Tally()
        run.run_pass(wl, 0, tally, tracer)
    assert dk.covers.drackn_verify is original and dk.lines.drackn_verify is original
    assert tally.failed == 0, tally.problems
    names = {s["name"] for s in tracer.spans}
    assert {"item.ts32", "covers.drackn_verify", "lines.cover_to_lines", "exact_matrix.mat_poly_check"} <= names
    self_times = tracer.self_times()
    children = {}
    for s in tracer.spans:
        children.setdefault(s["parent"], []).append(s["id"])

    def subtree_self(i: int) -> float:
        return self_times[i] + sum(subtree_self(k) for k in children.get(i, []))

    for s, own in zip(tracer.spans, self_times):
        wall = s["end"] - s["start"]
        assert -1e-9 <= own <= wall + 1e-9, (s["name"], own, wall)
        assert subtree_self(s["id"]) <= wall + 1e-9
    roots = children[None]
    assert sum(subtree_self(i) for i in roots) <= sum(
        tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in roots
    ) + 1e-9


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        t0 = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
