"""Run one ``cochar`` CLI job in-process with its layers instrumented.

Usage::

    PYTHONPATH=src python3 bench/tracer.py spans  -- hookmult --algebra UT3E ...
    PYTHONPATH=src python3 bench/tracer.py counts -- hookmult --algebra UT3E ...

``spans`` wraps each layer's public functions in a span recorder and reports
call counts, inclusive seconds and self seconds per layer.  ``counts`` wraps
only the hot ``partitions`` helpers in plain counters, so that their cost does
not land in the self time of the ``spans`` pass.  Both passes start from
cleared term caches, call ``cochar.cli.main`` with the given argv, capture the
job's standard output and print one JSON object to the real standard output::

    {"exit": 0, "sha256": "<hex of the job's stdout>", "metrics": {...}}

Every wrapper is installed at run time at every module binding of the
function's name (the ``from ... import`` copies included); nothing under
``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

# Span name for each instrumented function, keyed by (defining module, name).
SPANS = {
    ("cochar.hooks", "utn_hook_mult_series"): "hooks.pipeline",
    ("cochar.hooks", "hook_grassmann_derived"): "hooks.grassmann_step",
    ("cochar.hooks", "hook_pieri_row"): "hooks.pieri",
    ("cochar.hooks", "hook_pieri_col"): "hooks.pieri",
    ("cochar.hooks", "hs_decompose"): "hooks.decompose",
    ("cochar.series", "expand_factor"): "series.expand_factor",
    ("cochar.hilbert", "utn_hilbert"): "hilbert.raw",
    ("cochar.hilbert", "utn_double_hilbert"): "hilbert.raw",
    ("cochar.hilbert", "utn_mult_series"): "hilbert.pipeline",
    ("cochar.schur", "schur_decompose"): "schur.decompose",
    ("cochar.schur", "pieri_row"): "schur.pieri",
    ("cochar.schur", "pieri_col"): "schur.pieri",
    ("cochar.operators", "grassmann_derived"): "operators.grassmann_step",
    ("cochar.closed_forms", "closed_multiplicity"): "closed_forms.table",
    ("cochar.cli", "main"): "cli",
}
SERIES_METHODS = {"__mul__": "series.mul", "__rmul__": "series.mul",
                  "__pow__": "series.pow"}
ROUTES = ("pipeline", "decompose", "closed-form")
COUNTED = ("partition", "part_at", "in_hook")
STRIPS = ("horizontal_strips", "vertical_strips")


def _rebind(orig, replacement) -> None:
    """Replace ``orig`` by ``replacement`` at every binding in a cochar module."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cochar" or name.startswith("cochar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


class SpanRecorder:
    """Spans held in memory as (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.term_pairs = 0

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def metrics(self) -> dict[str, float]:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] = total.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for name in sorted(set(SPANS.values()) | set(SERIES_METHODS.values())):
            if name == "cli":
                continue
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["cli.self_s"] = self_s.get("cli", 0.0) + sum(
            self_s.get(f"cli.route.{r}", 0.0) for r in ROUTES)
        for r in ROUTES:
            out[f"cli.route.{r}.s"] = total.get(f"cli.route.{r}", 0.0)
        out["series.mul.term_pairs"] = self.term_pairs
        return out

    def install(self) -> None:
        import cochar.cli
        import cochar.series

        for (module, attr), name in SPANS.items():
            orig = getattr(sys.modules[module], attr)
            _rebind(orig, self.wrap(orig, name))

        series_cls = cochar.series.Series
        mul = series_cls.__mul__

        def counted_mul(a, b):
            if isinstance(b, series_cls):
                self.term_pairs += len(a.terms) * len(b.terms)
            return mul(a, b)

        for attr, name in SERIES_METHODS.items():
            fn = counted_mul if name == "series.mul" else getattr(series_cls, attr)
            setattr(series_cls, attr, self.wrap(fn, name))

        select = cochar.cli._select_routes

        def traced_select(routes, method):
            return {r: self.wrap(fn, f"cli.route.{r}")
                    for r, fn in select(routes, method).items()}

        _rebind(select, traced_select)


class Counters:
    """Exact call counts of the hot ``partitions`` helpers, without timing."""

    def __init__(self):
        self.calls = {name: 0 for name in COUNTED + STRIPS}
        self.yielded = 0
        self.pieri_hook: tuple[int, int] | None = None
        self.pieri_enumerated = 0
        self.pieri_kept = 0

    def install(self) -> None:
        import cochar.hooks
        import cochar.partitions as parts

        calls = self.calls

        def counter(fn, name):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def strip_counter(fn, name):
            def drain(gen):
                for nu in gen:
                    self.yielded += 1
                    if self.pieri_hook is not None:
                        # in_hook inlined: calling it would bump the counters
                        k, l = self.pieri_hook
                        self.pieri_enumerated += 1
                        if len(nu) <= k or nu[k] <= l:
                            self.pieri_kept += 1
                    yield nu

            def counted(*args, **kwargs):
                calls[name] += 1
                return drain(fn(*args, **kwargs))
            return counted

        def pieri_context(fn):
            def scoped(e, size):
                outer, self.pieri_hook = self.pieri_hook, (e.k, e.l)
                try:
                    return fn(e, size)
                finally:
                    self.pieri_hook = outer
            return scoped

        for name in COUNTED:
            orig = getattr(parts, name)
            _rebind(orig, counter(orig, name))
        for name in STRIPS:
            orig = getattr(parts, name)
            _rebind(orig, strip_counter(orig, name))
        for name in ("hook_pieri_row", "hook_pieri_col"):
            orig = getattr(cochar.hooks, name)
            _rebind(orig, pieri_context(orig))

    def metrics(self) -> dict[str, float]:
        c = self.calls
        return {
            "partitions.partition.calls": c["partition"],
            "partitions.part_at.calls": c["part_at"],
            "partitions.in_hook.calls": c["in_hook"],
            "partitions.strips.calls": c["horizontal_strips"] + c["vertical_strips"],
            "partitions.strips.yielded": self.yielded,
            "hooks.pieri.kept_ratio": (self.pieri_kept / self.pieri_enumerated
                                       if self.pieri_enumerated else 0.0),
        }


def run(mode: str, argv: list[str]) -> dict:
    """Trace one job; return its exit code, stdout sha256 and metrics."""
    # route threads would interleave spans on one stack; the default is one
    os.environ.pop("COCHAR_THREADS", None)
    import cochar.cli
    from cochar.hooks import _hs_terms
    from cochar.schur import _schur_terms

    _hs_terms.cache_clear()
    _schur_terms.cache_clear()
    recorder = SpanRecorder() if mode == "spans" else Counters()
    recorder.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cochar.cli.main(argv)
    metrics = recorder.metrics()
    metrics["hooks.hs_terms.entries"] = _hs_terms.cache_info().currsize
    metrics["schur.schur_terms.entries"] = _schur_terms.cache_info().currsize
    return {"exit": code,
            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            "metrics": metrics}


def main(args: list[str]) -> int:
    if len(args) < 3 or args[0] not in ("spans", "counts") or args[1] != "--":
        print("usage: tracer.py {spans|counts} -- <cochar argv>", file=sys.stderr)
        return 2
    print(json.dumps(run(args[0], args[2:]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
