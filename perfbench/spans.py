"""Tracing built from the benchmark's own files.

``Tracer.install`` rebinds public names of the program where the program
looks them up (``snpwoe.cli.parse_case_file``, ``snpwoe.unknown_w.quad``,
``ScaledBeta.quantile``, the ``woe_*`` names ``snpwoe.study`` imports, ...)
to wrappers that record spans and counts; ``uninstall`` puts the originals
back. Spans stay in memory as ``(name, start, end, parent)`` and are written
out, gzipped JSON lines, when the run ends. A hook whose name no longer exists is reported as
absent instead of failing the run.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in ``README.md`` next to this file.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

STUDY_METHODS = {
    "woe_known_result": "true-w",
    "woe_plugin": "plug-in",
    "woe_integrate_mc": "integrate-mc",
    "woe_integrate_quad": "integrate-quad",
    "woe_profile": "profile",
}

# Span metrics: each yields "<name>.s" and "<name>.self_s".
SPAN_NAMES = (
    "cli.main",
    "fileio.parse_case_file",
    "fileio.load_study_config",
    "fileio.write_records_csv",
    "fileio.write_summary_csv",
    "evidence.woe_known",
    "optimize.maximize_on_interval",
    "optimize.objective",
    "unknown_w.woe_plugin",
    "unknown_w.woe_profile",
    "unknown_w.woe_integrate_mc",
    "unknown_w.woe_integrate_quad",
    "unknown_w.quad",
    "scaled_beta.quantile",
    "scaled_beta.sample",
    "estimation.estimate_w_mle_per_marker",
    "study.run_woe_study",
    "study.simulate_case",
) + tuple(f"study.method.{m}" for m in STUDY_METHODS.values())

COUNT_NAMES = (
    "genotypes.channel_matrix.calls",
    "genotypes.channel_matrix.points",
    "optimize.maximize_on_interval.calls",
    "optimize.objective.calls",
    "optimize.objective.points",
    "unknown_w.quad.calls",
    "unknown_w.quad.integrand_evals",
    "scaled_beta.quantile.calls",
    "study.simulate_case.calls",
)


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric with its unit and direction. Times, counts
    and bytes are per case pair, so runs of different length compare."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = ("s/pair", "lower")
        units[f"{name}.self_s"] = ("s/pair", "lower")
    for name in COUNT_NAMES:
        units[name] = ("count/pair", "lower")
    units["fileio.parse_case_file.markers_per_s"] = ("1/s", "higher")
    units["fileio.write_records_csv.bytes"] = ("B/pair", "lower")
    units["trace.overhead_s"] = ("s/pair", "lower")
    units["trace.overhead_pct"] = ("%", "lower")
    return units


class Tracer:
    """Spans timed by ``clock``; pass a calibration's ``now`` so the
    kernel's samples stay out of them."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.markers_parsed = 0
        self.record_bytes = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before`` may replace the arguments and
        ``after`` sees the arguments and result."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, prefix: str, fn):
        """``fn`` counted by calls and by points (size of the first argument)."""
        counts = self.counts

        def wrapper(x, *args, **kwargs):
            counts[f"{prefix}.calls"] += 1
            counts[f"{prefix}.points"] += int(np.size(x))
            return fn(x, *args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, make) -> None:
        if isinstance(owner, str):
            try:
                owner = importlib.import_module(owner)
            except ImportError:
                self.absent.append(f"{owner}.{attr}")
                return
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        counts = self.counts

        def count_call(key):
            def before(args, kwargs):
                counts[key] += 1
                return args, kwargs
            return before

        def objective(args, kwargs):
            counts["optimize.maximize_on_interval.calls"] += 1
            fn = self.wrap("optimize.objective", self.counted("optimize.objective", args[0]))
            return (fn,) + args[1:], kwargs

        def integrand(args, kwargs):
            counts["unknown_w.quad.calls"] += 1
            fn = args[0]

            def evaluated(v, *rest):
                counts["unknown_w.quad.integrand_evals"] += 1
                return fn(v, *rest)
            return (evaluated,) + args[1:], kwargs

        def parsed(args, case):
            self.markers_parsed += case.m

        def wrote(args, result):
            self.record_bytes += os.path.getsize(args[1])

        span = self.wrap
        self._rebind("snpwoe.cli", "main", lambda f: span("cli.main", f))
        self._rebind("snpwoe.cli", "parse_case_file",
                     lambda f: span("fileio.parse_case_file", f, after=parsed))
        self._rebind("snpwoe.cli", "load_study_config",
                     lambda f: span("fileio.load_study_config", f))
        self._rebind("snpwoe.cli", "write_records_csv",
                     lambda f: span("fileio.write_records_csv", f, after=wrote))
        self._rebind("snpwoe.cli", "write_summary_csv",
                     lambda f: span("fileio.write_summary_csv", f))
        self._rebind("snpwoe.cli", "summarize_records",
                     lambda f: span("study.summarize_records", f))
        self._rebind("snpwoe.cli", "run_woe_study", lambda f: span("study.run_woe_study", f))
        self._rebind("snpwoe.study", "simulate_case",
                     lambda f: span("study.simulate_case", f,
                                    before=count_call("study.simulate_case.calls")))
        for attr, method in STUDY_METHODS.items():
            layer = f"unknown_w.{attr}"
            self._rebind("snpwoe.cli", attr, lambda f, n=layer: span(n, f))
            self._rebind("snpwoe.study", attr,
                         lambda f, n=layer, m=method: span(f"study.method.{m}", span(n, f)))
        self._rebind("snpwoe.unknown_w", "woe_known", lambda f: span("evidence.woe_known", f))
        self._rebind("snpwoe.evidence", "channel_matrix",
                     lambda f: self.counted("genotypes.channel_matrix", f))
        for module in ("snpwoe.unknown_w", "snpwoe.estimation"):
            self._rebind(module, "maximize_on_interval",
                         lambda f: span("optimize.maximize_on_interval", f, before=objective))
        self._rebind("snpwoe.unknown_w", "quad", lambda f: span("unknown_w.quad", f, before=integrand))
        self._rebind("snpwoe.estimation", "estimate_w_mle_per_marker",
                     lambda f: span("estimation.estimate_w_mle_per_marker", f))
        try:
            from snpwoe.scaled_beta import ScaledBeta
        except ImportError:
            self.absent.append("snpwoe.scaled_beta.ScaledBeta")
        else:
            self._rebind(ScaledBeta, "quantile",
                         lambda f: span("scaled_beta.quantile", f,
                                        before=count_call("scaled_beta.quantile.calls")))
            self._rebind(ScaledBeta, "sample", lambda f: span("scaled_beta.sample", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, pairs: int, slowness: float, untraced_s: float,
                traced_s: float) -> dict[str, float]:
        """Per-layer metrics per case pair, with self time derived from the
        spans: a span's duration minus its direct children's. Times are
        divided by the traced pass's ``slowness``; ``untraced_s`` and
        ``traced_s`` are the two passes' times, already divided by theirs."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += end - start - child[index]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = total[name] / slowness / pairs
            out[f"{name}.self_s"] = own[name] / slowness / pairs
        for name in COUNT_NAMES:
            out[name] = self.counts[name] / pairs
        parse_s = total["fileio.parse_case_file"]
        out["fileio.parse_case_file.markers_per_s"] = (
            self.markers_parsed * slowness / parse_s if parse_s else 0.0)
        out["fileio.write_records_csv.bytes"] = self.record_bytes / pairs
        out["trace.overhead_s"] = (traced_s - untraced_s) / pairs
        out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        return out

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
