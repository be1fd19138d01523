"""Span tracing at qgraph's module boundaries, installed from outside.

``Tracer.install()`` replaces every public function of the seven qgraph
modules, in every qgraph namespace that holds it, with a wrapper that
records a span: name, layer (the defining module), thread, parent span,
start, end, and the exception type if one escaped.  It also wraps the
numpy kernels ``numpy.linalg.solve``, ``det`` and ``eigvals`` and
``numpy.roots``.  ``uninstall()`` puts the originals back.  No source file
of the program is edited.

Spans are kept in memory.  A span opened on a worker thread with nothing
open on that thread is parented to the innermost span open on the thread
that installed the tracer: that is the call waiting on the pool (in qgraph,
``sweep_transmission``).

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics named in ``BENCHMARK.json``, each normalised per pass.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "compose", "graphs", "solver", "closedforms", "walks", "analysis")
KERNELS = (
    (np.linalg, "solve"),
    (np.linalg, "det"),
    (np.linalg, "eigvals"),
    (np, "roots"),
)


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "error", "info")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _note_solve_many(args, kwargs, result):
    graph, kl = args[0], args[1] if len(args) > 1 else kwargs["kl"]
    return {"points": int(np.size(kl)), "bonds": 2 * len(graph.edges)}


def _note_sweep(args, kwargs, result):
    threads = args[4] if len(args) > 4 else kwargs.get("threads")
    return {"threads": max(1, int(threads or 1))}


def _note_len(args, kwargs, result):
    return {"count": len(result)}


def _note_stats(args, kwargs, result):
    return {"order": len(result.p_of_m) - 1}


NOTES = {
    "solver.solve_many": _note_solve_many,
    "analysis.sweep_transmission": _note_sweep,
    "analysis.detect_peaks": _note_len,
    "walks.walk_stats_to_tolerance": _note_stats,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._owner = threading.get_ident()
        self._patches = []

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def span(self, name: str, layer: str):
        """Open a span; the caller closes it with ``close``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._stacks.get(self._owner)
            parent = owner[-1] if owner else None
        s = Span(name, layer, parent, threading.get_ident())
        stack.append(s)
        self.spans.append(s)
        s.start = time.perf_counter()
        return s

    def close(self, s: Span, error: BaseException | None = None) -> None:
        s.end = time.perf_counter()
        if error is not None:
            s.error = type(error).__name__
        self._stacks[s.thread].pop()

    def wrap(self, fn, name: str, layer: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.span(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(s, exc)
                raise
            self.close(s)
            if note is not None:
                s.info = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("qgraph")]
        modules += [importlib.import_module(f"qgraph.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not owner.startswith("qgraph.")):
                    continue
                layer = owner.split(".")[1]
                if layer not in LAYERS:
                    continue
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = self.wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[key])
        for module, attr in KERNELS:
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, f"numpy.{attr}", "numpy"))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _complex_solve_flops(n: int) -> float:
    """Computed real flops of one complex n x n LU solve with one right-hand side."""
    return 8.0 / 3.0 * n ** 3 + 8.0 * n ** 2


def layer_metrics(spans, passes: int, cache_misses: int) -> dict:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def total(name, pred=None):
        return sum(s.seconds for s in by_name[name] if pred is None or pred(s))

    def count(name, pred=None):
        return sum(1 for s in by_name[name] if pred is None or pred(s))

    def parent_is(name):
        return lambda s: s.parent is not None and s.parent.name == name

    def batch(s):
        return not parent_is("solver.scattering_matrix")(s)

    batches = [s for s in by_name["solver.solve_many"] if batch(s)]
    batch_points = sum(s.info["points"] for s in batches if s.info)
    batch_s = sum(s.seconds for s in batches)
    batch_flops = sum(
        s.info["points"] * _complex_solve_flops(s.info["bonds"]) for s in batches if s.info
    )

    busy = wall = 0.0
    for sweep in by_name["analysis.sweep_transmission"]:
        threads = sweep.info["threads"] if sweep.info else 1
        busy += sum(c.seconds for c in children[id(sweep)] if c.name == "solver.solve_many")
        wall += threads * sweep.seconds

    refine = count("solver.scattering_or_limit", parent_is("analysis.detect_peaks"))
    peaks = sum(s.info["count"] for s in by_name["analysis.detect_peaks"] if s.info)
    orders = [s.info["order"] for s in by_name["walks.walk_stats_to_tolerance"] if s.info]

    self_s = defaultdict(float)
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)]]
        self_s[s.layer] += s.seconds - _covered([iv for iv in inside if iv[1] > iv[0]])

    def top_level(layer):
        return lambda s: s.parent is None or s.parent.layer != layer

    walk_failures = sum(
        1 for s in spans if s.layer == "walks" and s.error and top_level("walks")(s)
    )
    compose_s = sum(
        s.seconds for s in spans if s.layer == "compose" and top_level("compose")(s)
    )

    per_pass = {
        "solver.batch_points": batch_points,
        "solver.batch_s": batch_s,
        "solver.scalar_calls": count("solver.scattering_matrix"),
        "solver.scalar_s": total("solver.scattering_matrix"),
        "solver.limit_calls": count("solver.scattering_limit"),
        "solver.extract_calls": count("solver.extract_rational_amplitude"),
        "solver.extract_s": total("solver.extract_rational_amplitude"),
        "solver.kernel_det_s": total("numpy.det"),
        "solver.kernel_solve_s": total("numpy.solve"),
        "solver.assemble_cache_misses": cache_misses,
        "analysis.refine_evals": refine,
        "analysis.sweep_repaired_points": count(
            "solver.scattering_or_limit", parent_is("analysis.sweep_transmission")
        ),
        "graphs.validate_calls": count("graphs.validate_graph"),
        "graphs.validate_s": total("graphs.validate_graph"),
        "graphs.subdivide_s": total("graphs.subdivide_integral"),
        "cli.format_s": total("analysis.sweep_to_csv") + total("analysis.peaks_to_json"),
        "cli.resolve_s": total("cli.resolve_graph"),
        "compose.s": compose_s,
        "walks.to_tolerance_s": total("walks.walk_stats_to_tolerance"),
        "walks.taylor_calls": count("walks.taylor_coefficients"),
        "walks.quadrature_s": total("walks.walk_stats_by_quadrature"),
        "walks.failed": walk_failures,
        "walks.power_s": total("walks.coefficients_via_power_iteration"),
        "walks.kernel_eigvals_s": total("numpy.eigvals"),
        "walks.kernel_roots_s": total("numpy.roots"),
        "closedforms.cycle_nk_s": total("closedforms.cycle_nk_amplitude"),
    }
    for layer in LAYERS:
        per_pass[f"{layer}.self_s"] = self_s[layer]
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics.update({
        "solver.batch_us_per_point": 1e6 * batch_s / batch_points if batch_points else 0.0,
        "solver.batch_gflops_computed": batch_flops / batch_s / 1e9 if batch_s else 0.0,
        "analysis.refine_evals_per_peak": refine / peaks if peaks else 0.0,
        "analysis.sweep_parallel_eff": busy / wall if wall else 0.0,
        "walks.certified_order_max": max(orders, default=0),
    })
    return metrics
