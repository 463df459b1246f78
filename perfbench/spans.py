"""Spans recorded from outside the program, around calls into its layers.

``Tracer.install`` replaces each traced public function at every module
binding that refers to it (``drackn.covers.regular_expand`` and the name
``regular_expand`` imported into other modules are one function), and a few
methods on their classes.  Spans stay in memory with their parent's id until
``write`` dumps them.  A span's self time is its duration minus the
durations of its direct children: one thread runs them one after another, so
the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, size in bytes from (args, result) or None)
FUNCTIONS = (
    ("drackn.groups", "char_apply", "groups.char_apply", None),
    ("drackn.groups", "regular_expand", "groups.regular_expand",
     lambda args, out: (args[0].n * args[0].group.order) ** 2 * 8),
    ("drackn.exact_matrix", "mat_poly_check", "exact_matrix.mat_poly_check", None),
    ("drackn.exact_matrix", "mat_rank_exact", "exact_matrix.mat_rank_exact", None),
    ("drackn.covers", "drackn_verify", "covers.drackn_verify", None),
    ("drackn.covers", "normalize", "covers.normalize", None),
    ("drackn.covers", "quotient", "covers.quotient", None),
    ("drackn.lines", "two_eigenvalue_data", "lines.two_eigenvalue_data", None),
    ("drackn.lines", "tight_frame_check", "lines.tight_frame_check", None),
    ("drackn.lines", "cover_to_lines", "lines.cover_to_lines", None),
    ("drackn.lines", "lines_to_cover", "lines.lines_to_cover", None),
    ("drackn.formats", "parse_cover", "formats.parse_cover", lambda args, out: len(args[0])),
    ("drackn.formats", "emit_cover", "formats.emit_cover", lambda args, out: len(out)),
    ("drackn.formats", "parse_seidel", "formats.parse_seidel", lambda args, out: len(args[0])),
    ("drackn.formats", "emit_seidel", "formats.emit_seidel", lambda args, out: len(out)),
    ("drackn.feasibility", "family_enumerate", "feasibility.family_enumerate", None),
    ("drackn.feasibility", "feasibility_battery", "feasibility.feasibility_battery", None),
    ("drackn.constructions", "thas_somma", "constructions.thas_somma", None),
    ("drackn.constructions", "dcff", "constructions.dcff", None),
)

# (module, class, method, span name)
METHODS = (
    ("drackn.covers", "ArcMatrix", "__init__", "covers.ArcMatrix"),
    ("drackn.lines", "SeidelMatrix", "__init__", "lines.SeidelMatrix"),
    ("drackn.constructions", "SkewProduct", "validate", "constructions.skew_validate"),
)


class Tracer:
    """Span and counter recorder; spans carry the phase they were made in."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if size is not None:
                    rec["bytes"] = size(args, out)
                return out

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its module bindings."""
        mods = [m for k, m in list(sys.modules.items()) if k == "drackn" or k.startswith("drackn.")]
        for modname, attr, name, size in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(orig, name, size)
            for mod in mods:
                if vars(mod).get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = vars(cls)[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, None))
        matrix = sys.modules["drackn.exact_matrix"].ExactMatrix
        mul = vars(matrix)["__mul__"]

        def counted_mul(a, b):
            if isinstance(b, matrix):
                self.counts[self.phase, "exact_matrix.entry_mults"] += a.nrows * a.ncols * b.ncols
            return mul(a, b)

        self._undo.append((matrix, "__mul__", mul))
        matrix.__mul__ = counted_mul

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like ``spans``."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total s, self s and bytes, over one phase."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        for s, self_s in zip(self.spans, self.self_times()):
            if s["phase"] != phase:
                continue
            a = agg[s["name"]]
            a["calls"] += 1
            a["s"] += s["end"] - s["start"]
            a["self_s"] += self_s
            a["bytes"] += s.get("bytes", 0)
        return agg

    def time_under(self, name: str, root: str, phase: str) -> float:
        """Total time of spans called ``name`` that run inside a ``root`` span."""
        total = 0.0
        for s in self.spans:
            if s["name"] != name or s["phase"] != phase:
                continue
            p = s["parent"]
            while p is not None and self.spans[p]["name"] != root:
                p = self.spans[p]["parent"]
            if p is not None:
                total += s["end"] - s["start"]
        return total

    def write(self, path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = [{"phase": ph, "name": k, "value": v} for (ph, k), v in self.counts.items()]
        path.write_text(json.dumps({"env": env, "spans": self.spans, "counts": counts}) + "\n")
