"""Per-layer spans recorded from outside smcmix.

The tracer replaces public names of smcmix, as bound in the module that
calls them, with wrappers that record a span (name, start, end, parent)
per call.  Nothing under ``src/`` is edited: the wrappers are installed by
:meth:`Tracer.installed` for the traced passes only and the original
bindings are restored when the block ends.  Spans stay in memory until
:meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict

_INIT_CALLERS = ("initialization", "selection", "sim")

# Span name -> the smcmix modules whose binding of that name is wrapped.
# A span is named after the module that defines the function, whichever
# module calls it.  Bindings a later version of smcmix no longer has are
# skipped, so their counts read 0.
WRAPPED = {
    "likelihood.subject_loglik_matrix": ("em",),
    "likelihood.mixture_loglik": ("em", "selection"),
    "initialization.initial_model": _INIT_CALLERS,
    "initialization.kmeans": _INIT_CALLERS,
    "sojourn.fit_gamma_mom": _INIT_CALLERS,
    "em.fit": ("selection", "sim"),
    "em.e_step": ("em",),
    "selection.select_g": ("selection", "sim"),
    "sim.simulate_panel": ("sim",),
    "sim.run_benchmark": ("sim",),
    "metrics.align_components": ("sim",),
    "metrics.classification_rate": ("sim",),
    "dataio.read_panel": ("dataio",),
    "dataio.read_model": ("dataio",),
    "dataio.write_panel": ("dataio",),
    "dataio.write_model": ("dataio",),
    "dataio.write_text": ("dataio",),
}
STATS_SPAN = "likelihood.PanelStats.from_panel"

# Per-layer metrics, each reported per op (one ingest pass, one sweep or
# one replicate), with its unit.
LAYER_METRICS = {
    "dataio.read_panel_s": "s",
    "dataio.rows": "count",
    "dataio.rows_per_s": "1/s",
    "dataio.write_s": "s",
    "likelihood.stats_builds": "count",
    "likelihood.stats_s": "s",
    "likelihood.loglik_calls": "count",
    "likelihood.loglik_s": "s",
    "initialization.init_calls": "count",
    "initialization.init_s": "s",
    "initialization.kmeans_calls": "count",
    "initialization.kmeans_s": "s",
    "sojourn.mom_calls": "count",
    "em.fit_calls": "count",
    "em.iterations": "count",
    "em.self_s": "s",
    "em.s_per_iteration": "s",
    "em.unconverged_frac": "frac",
    "em.aborted": "count",
    "em.warnings": "count",
    "em.e_step_s": "s",
    "selection.sweeps": "count",
    "selection.self_s": "s",
    "sim.simulate_s": "s",
    "sim.trajectories": "count",
    "sim.trajectories_per_s": "1/s",
    "sim.harness_self_s": "s",
    "metrics.align_s": "s",
    "trace.overhead_s": "s",
}


def _fit_attrs(report, aborted: bool) -> dict:
    return {
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "warnings": len(report.warnings),
        "aborted": aborted,
    }


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.fits: list[tuple] = []  # (panel, FitReport, aborted) of the current pass
        self.pass_index = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.fits = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _on_fit(self, span, args, result, exc):
        report = result if exc is None else getattr(exc, "report", None)
        if report is None:
            return
        span["attrs"] = _fit_attrs(report, aborted=exc is not None)
        self.fits.append((args[0], report, exc is not None))

    def _hooks(self, name):
        if name == "em.fit":
            return self._on_fit
        if name == "sim.simulate_panel":
            def on_sim(span, args, result, exc):
                if exc is None:
                    panel = result[0]
                    span["attrs"] = {"trajectories": panel.n_subjects * panel.n_replications}
            return on_sim
        if name == "dataio.read_panel":
            def on_read(span, args, result, exc):
                if exc is None:
                    panel, report = result
                    states = sum(len(t) for t in panel.trajectories())
                    span["attrs"] = {"rows": states + report.merge_count}
            return on_read
        return None

    def _wrap(self, name, fn):
        hook = self._hooks(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "name": name,
                "pass": self.pass_index,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
                "child_s": 0.0,
            }
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span)
            result = exc = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
                if hook is not None:
                    hook(span, args, result, exc)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        from smcmix.likelihood import PanelStats

        restore = []
        try:
            for name, callers in WRAPPED.items():
                home, attr = name.split(".")
                original = getattr(importlib.import_module(f"smcmix.{home}"), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for caller in callers:
                    module = importlib.import_module(f"smcmix.{caller}")
                    if getattr(module, attr, None) is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
            original = PanelStats.__dict__["from_panel"]
            restore.append((PanelStats, "from_panel", original))
            PanelStats.from_panel = classmethod(self._wrap(STATS_SPAN, original.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer values of one traced pass, each divided by the ops of the
    pass (``trace.overhead_s`` is filled in by the caller)."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        dur = span["end"] - span["start"]
        count[name] += 1
        total[name] += dur
        own[name] += dur - span["child_s"]
        for key, value in span.get("attrs", {}).items():
            attrs[f"{name}.{key}"] += float(value)

    def ratio(num, den):
        return num / den if den else 0.0

    fits = count["em.fit"]
    loglik = ("likelihood.subject_loglik_matrix", "likelihood.mixture_loglik")
    writers = ("dataio.write_panel", "dataio.write_model", "dataio.write_text")
    align = ("metrics.align_components", "metrics.classification_rate")
    per_pass = {
        "dataio.read_panel_s": total["dataio.read_panel"],
        "dataio.rows": attrs["dataio.read_panel.rows"],
        "dataio.write_s": sum(total[n] for n in writers),
        "likelihood.stats_builds": count[STATS_SPAN],
        "likelihood.stats_s": total[STATS_SPAN],
        "likelihood.loglik_calls": sum(count[n] for n in loglik),
        "likelihood.loglik_s": sum(total[n] for n in loglik),
        "initialization.init_calls": count["initialization.initial_model"],
        "initialization.init_s": total["initialization.initial_model"],
        "initialization.kmeans_calls": count["initialization.kmeans"],
        "initialization.kmeans_s": total["initialization.kmeans"],
        "sojourn.mom_calls": count["sojourn.fit_gamma_mom"],
        "em.fit_calls": fits,
        "em.iterations": attrs["em.fit.iterations"],
        "em.self_s": own["em.fit"],
        "em.aborted": attrs["em.fit.aborted"],
        "em.warnings": attrs["em.fit.warnings"],
        "em.e_step_s": total["em.e_step"],
        "selection.sweeps": count["selection.select_g"],
        "selection.self_s": own["selection.select_g"],
        "sim.simulate_s": total["sim.simulate_panel"],
        "sim.trajectories": attrs["sim.simulate_panel.trajectories"],
        "sim.harness_self_s": own["sim.run_benchmark"],
        "metrics.align_s": sum(total[n] for n in align),
    }
    out = {name: float(value) / ops for name, value in per_pass.items()}
    out["dataio.rows_per_s"] = ratio(per_pass["dataio.rows"], per_pass["dataio.read_panel_s"])
    out["em.s_per_iteration"] = ratio(total["em.fit"], attrs["em.fit.iterations"])
    out["em.unconverged_frac"] = ratio(fits - attrs["em.fit.converged"], fits)
    out["sim.trajectories_per_s"] = ratio(
        per_pass["sim.trajectories"], per_pass["sim.simulate_s"]
    )
    return out
