#!/usr/bin/env python3
"""drackn benchmark: run one workload for one seed, print one JSON result.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 14 --trace 0

Run it from the root of a checkout; the program is imported from the
checkout's ``src/`` and from nowhere else.  Every workload is one closed-loop
client that hands the program one input at a time, in this process (or, for
``cli``, in subprocesses it waits for).  The seed only relabels and perturbs
the generated inputs (and orders the CLI pipelines).

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
measured with nothing wrapped.  With ``--trace 1`` they are the
``per_layer`` list: untraced and traced passes alternate, the traced ones
record spans (see ``spans.py``), and the spans are written to
``.perfbench/trace-<workload>-<seed>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# A set-up is repeated, up to SETUP_REPEATS times, while the set-ups so far
# took less than SETUP_SHARE of --seconds; setup_s reports the median.
SETUP_REPEATS = 5
SETUP_SHARE = 0.25


def load_program():
    """Import drackn from the checkout; return (modules, seconds taken)."""
    if not (SRC / "drackn" / "__init__.py").is_file():
        raise SystemExit(f"error: no drackn package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import drackn.cli  # noqa: F401  (imports every module of the package)

    import_s = time.perf_counter() - t0
    if not Path(sys.modules["drackn"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("error: drackn was imported from outside the checkout")
    names = ("cli", "constructions", "covers", "errors", "formats", "lines")
    return SimpleNamespace(**{k: sys.modules[f"drackn.{k}"] for k in names}), import_s


# -- workloads -----------------------------------------------------------------


class Failed:
    """Output of an input on which the program raised unexpectedly."""

    def __init__(self):
        self.text = traceback.format_exc(limit=3)


class Certify:
    """Relabelled covers of the ladder, parsed and verified."""

    rungs = tuple(inputs.LADDER)
    pool = 4

    def __init__(self, dk, seed: int):
        self.dk, self.seed = dk, seed

    def setup(self) -> None:
        self.ladder = inputs.build_ladder(self.dk.constructions, self.rungs)

    def make_inputs(self) -> None:
        self.texts = {
            rung: [
                self.make_input(*self.ladder[rung], inputs.rung_rng(self.seed, rung, k))
                for k in range(self.pool)
            ]
            for rung in self.rungs
        }

    def make_input(self, orders, entries, rng) -> str:
        return inputs.cover_text(orders, inputs.relabel(orders, entries, rng))

    def order(self, i: int) -> tuple[str, ...]:
        return self.rungs

    def run(self, rung: str, i: int, tracer):
        f = self.dk.formats.parse_cover(self.texts[rung][i % self.pool])
        return self.dk.covers.drackn_verify(f)

    def check(self, rung: str, out) -> list[str]:
        return checks.certificate(out, rung)


class Reject(Certify):
    """The same ladder with one arc pair changed; each must be rejected."""

    pool = 16

    def make_input(self, orders, entries, rng) -> str:
        return inputs.cover_text(orders, inputs.perturb(orders, entries, rng))

    def run(self, rung: str, i: int, tracer):
        f = self.dk.formats.parse_cover(self.texts[rung][i % self.pool])
        try:
            self.dk.covers.drackn_verify(f)
        except self.dk.errors.VerificationError as exc:
            tag = exc.condition
        else:
            tag = "accepted"
        if tracer is not None:
            key = "not-distance-regular" if tag == "not-distance-regular" else "other"
            tracer.counts[tracer.phase, f"covers.reject.{key}"] += 1
        return tag

    def check(self, rung: str, out) -> list[str]:
        return checks.rejection(out, rung)


class Lines(Certify):
    """Covers to line systems, through the Seidel format, and back."""

    rungs = ("ts32", "ts52", "ts26")

    def run(self, rung: str, i: int, tracer):
        dk = self.dk
        cl = dk.lines.cover_to_lines(dk.formats.parse_cover(self.texts[rung][i % self.pool]), 1)
        text = dk.formats.emit_seidel(cl.seidel)
        _, cert = dk.lines.lines_to_cover(dk.formats.parse_seidel(text), inputs.closed_form(rung)[1])
        return cl, text, cert

    def check(self, rung: str, out) -> list[str]:
        return checks.lines(out, rung)


# name -> commands run one after another; a command is a list of stages
# joined by pipes, as in the README.
PIPELINES = {
    "construct-verify": [[["construct", "thas-somma", "-p", "3", "-m", "2", "-s", "1"], ["verify"]]],
    "construct-verify-25": [[["construct", "thas-somma", "-p", "5", "-m", "2"], ["verify"]]],
    "lines-roundtrip": [
        [
            ["construct", "thas-somma", "-p", "3", "-m", "2"],
            ["cover-to-lines", "--char", "1"],
            ["lines-to-cover", "--r", "3"],
            ["verify"],
        ]
    ],
    "dcff-quotient": [
        [["construct", "dcff", "-t", "1", "-d", "3"], ["verify"]],
        [["construct", "dcff", "-t", "1", "-d", "3"], ["quotient", "--subgroup", "1,0,0"], ["verify"]],
    ],
    "gh-roundtrip": [
        [["construct", "thas-somma", "-p", "3", "-m", "2"], ["cover-to-gh"], ["gh-to-cover"]]
    ],
    "tables": [
        [["enumerate", "--case", "IIb", "--t-max", "21", "--tsv"]],
        [["enumerate", "--case", "Ib", "--t-max", "9", "--include-two-graph"]],
        [["feasible", "276", "4", "56"]],
    ],
}


class Cli:
    """The README pipelines, one at a time, each stage its own process.

    Untraced, the stages of a pipeline run together joined by pipes, as a
    shell runs them.  Traced, they run one after another on the previous
    stage's saved output, each under a ``cli.<subcommand>`` span, and then
    the pipeline is replayed in this process through ``drackn.cli.main`` so
    the spans inside the layers are recorded too.
    """

    def __init__(self, dk, seed: int):
        self.dk, self.seed = dk, seed
        self.cmd = [sys.executable, "-m", "drackn.cli"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self) -> None:
        """One interpreter start plus import of the CLI, as each stage pays."""
        subprocess.run(
            [sys.executable, "-c", "import drackn.cli"], cwd=ROOT, env=self.env, check=True
        )

    def make_inputs(self) -> None:
        pass

    def order(self, i: int) -> list[str]:
        names = list(PIPELINES)
        random.Random(f"{self.seed}:cli:{i}").shuffle(names)
        return names

    def _piped(self, stages) -> tuple[list[int], bytes]:
        procs: list[subprocess.Popen] = []
        try:
            stdin = subprocess.DEVNULL
            for argv in stages:
                proc = subprocess.Popen(
                    self.cmd + argv, stdin=stdin, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, cwd=ROOT, env=self.env,
                )
                if procs:
                    procs[-1].stdout.close()  # the next stage holds its own copy
                procs.append(proc)
                stdin = proc.stdout
            out = procs[-1].stdout.read()
            procs[-1].stdout.close()
            return [p.wait() for p in procs], out
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()

    def _serial(self, stages, tracer) -> tuple[list[int], bytes]:
        codes, data = [], b""
        for argv in stages:
            with tracer.span(f"cli.{argv[0]}"):
                done = subprocess.run(
                    self.cmd + argv, input=data, capture_output=True, cwd=ROOT, env=self.env
                )
            codes.append(done.returncode)
            data = done.stdout
        return codes, data

    def run(self, name: str, i: int, tracer):
        codes, out = [], b""
        for stages in PIPELINES[name]:
            c, o = self._piped(stages) if tracer is None else self._serial(stages, tracer)
            codes += c
            out += o
        return codes, out

    def replay(self, name: str, tracer) -> list[str]:
        """Run the pipeline in-process under the tracer; check its output."""
        codes, out = [], ""
        with tracer.span(f"replay.{name}"):
            for stages in PIPELINES[name]:
                text = ""
                for argv in stages:
                    sink = io.StringIO()
                    saved = sys.stdin
                    sys.stdin = io.StringIO(text)
                    try:
                        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                            codes.append(self.dk.cli.main(argv))
                    finally:
                        sys.stdin = saved
                    text = sink.getvalue()
                out += text
        return checks.cli(name, codes, out.encode())

    def check(self, name: str, out) -> list[str]:
        return checks.cli(name, *out)


WORKLOADS = {"certify": Certify, "reject": Reject, "lines": Lines, "cli": Cli}


# -- measurement ---------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(wl, i: int, tally: Tally, tracer=None) -> dict[str, float]:
    """One pass over the workload's inputs; returns seconds per input.

    Only the program's work is timed; checking the output is not.
    """
    times = {}
    for name in wl.order(i):
        span = tracer.span(f"item.{name}") if tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                out = wl.run(name, i, tracer)
            except Exception:
                out = Failed()
            times[name] = time.perf_counter() - t0
        problems = [f"{name}: raised\n{out.text}"] if isinstance(out, Failed) else wl.check(name, out)
        if tracer is not None and hasattr(wl, "replay"):
            try:
                problems += wl.replay(name, tracer)
            except Exception:
                problems.append(f"{name}: replay raised\n{Failed().text}")
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems += problems
    return times


def setup(wl, seconds: float) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS and (
        not times or time.perf_counter() - start < SETUP_SHARE * seconds
    ):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    wl.make_inputs()
    return times


def peak_rss_mb(workload: str) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(wl, args, import_s: float, tally: Tally) -> tuple[dict, dict]:
    setup_times = setup(wl, args.seconds)
    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(wl, len(passes), tally))
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "pass_s": statistics.median(sum(p.values()) for p in passes),
        "slowest_input_s": statistics.median(max(p.values()) for p in passes),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    info = {"setups": len(setup_times), "passes": len(passes), "per_input_s": per_input(passes)}
    return values, info


def per_input(passes: list[dict[str, float]]) -> dict[str, float]:
    by_name = defaultdict(list)
    for p in passes:
        for name, dt in p.items():
            by_name[name].append(dt)
    return {name: statistics.median(v) for name, v in by_name.items()}


def traced(wl, args, tally: Tally, names) -> tuple[dict, dict, spans.Tracer]:
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
    wl.make_inputs()
    plain: list[dict[str, float]] = []
    traced_passes: list[dict[str, float]] = []
    tracer.phase = "pass"
    start = time.perf_counter()
    i = 0
    while not traced_passes or time.perf_counter() - start < args.seconds:
        if i % 2 == 0:
            plain.append(run_pass(wl, i, tally))
        else:
            with tracer.installed():
                traced_passes.append(run_pass(wl, i, tally, tracer))
        i += 1
    values = layer_metrics(names, tracer, traced_passes, plain, setup_s, args.workload)
    info = {"passes": len(plain), "traced_passes": len(traced_passes)}
    return values, info, tracer


def layer_metrics(names, tracer, traced_passes, plain, setup_s, workload) -> dict[str, float]:
    """Value of each named per-layer metric; layers never called read 0.

    Values are per traced pass.  A name ending in ``.s``, ``.self_s``,
    ``.calls`` or ``.bytes`` is a span statistic, and ``constructions.*``
    also add the traced set-up, which is where the ladder workloads build
    their covers.  Other names are counters or are computed below;
    ``rung_s.*`` and ``pipeline_s.*`` come from the untraced passes.
    """
    n = len(traced_passes)
    pass_tot, setup_tot = tracer.totals("pass"), tracer.totals("setup")
    traced_s = statistics.median(sum(p.values()) for p in traced_passes)
    plain_s = statistics.median(sum(p.values()) for p in plain)
    items = per_input(plain)
    ts72 = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "item.ts72")
    special = {
        "exact_matrix.mat_poly_check.share_ts72": (
            tracer.time_under("exact_matrix.mat_poly_check", "item.ts72", "pass") / ts72 if ts72 else 0.0
        ),
        "cli.import_s": setup_s if workload == "cli" else 0.0,
        "trace.traced_pass_s": traced_s,
        "trace.untraced_pass_s": plain_s,
        "trace.overhead_pct": 100 * (traced_s / plain_s - 1),
    }
    for rung in inputs.LADDER:
        special[f"rung_s.{rung}"] = items.get(rung, 0.0)
    for name in PIPELINES:
        special[f"pipeline_s.{name}"] = items.get(name, 0.0)

    def value(metric: str) -> float:
        if metric in special:
            return special[metric]
        base, _, key = metric.rpartition(".")
        if key not in ("s", "self_s", "calls", "bytes"):
            return tracer.counts["pass", metric] / n
        total = pass_tot[base][key] / n if base in pass_tot else 0
        if base.startswith("constructions.") and base in setup_tot:
            total += setup_tot[base][key]
        return total

    return {name: value(name) for name in names}


# -- environment and output ------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "drackn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dk, import_s = load_program()
    wl = WORKLOADS[args.workload](dk, args.seed)
    tally = Tally()
    env = environment(args)
    print("ENV " + json.dumps(env))
    if args.trace:
        wanted = spec["per_layer"]
        values, info, tracer = traced(wl, args, tally, [m["name"] for m in wanted])
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", env)
    else:
        wanted = spec["end_to_end"]
        values, info = end_to_end(wl, args, import_s, tally)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for problem in tally.problems:
        print("FAILED " + problem, file=sys.stderr)
    print(f"RUN {json.dumps(info)} fail_ratio={tally.failed / max(tally.attempted, 1):g}")
    for name, m in metrics.items():
        print(f"METRIC {name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
