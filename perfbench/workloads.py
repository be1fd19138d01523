"""The benchmark workloads: their operations and output checks.

An operation is one call through a public entry point: ``qgraph.cli.main``
in-process with stdout captured, or the public ``qgraph.walks`` functions
for walk-crosscheck.  Every operation's output is checked, and every
outcome is classified by ``execute``:

    "ok"              exit 0 and the output passed its check
    "wrong"           exit 0 but the output failed its check
    "exit <n>"        non-zero exit code
    "<ExceptionName>" an exception escaped the entry point

Module objects are looked up at call time (``qgraph.cli.main``, never a
name imported once), so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Every operation runs with one sweep thread (peaks is the only command here
# that sweeps).
QGRAPH_THREADS = "1"

# Acceptance criteria 3-5: reference resonance centers of the three chains.
PEAK_CENTERS = {
    "c3-c3": (math.pi - 0.91393, math.pi + 0.91393),
    "c4-c4": (math.pi - 1.76182, math.pi - 1.37977, math.pi + 1.37977, math.pi + 1.76182),
    "c3-c4-c3": (math.pi - 1.12611, math.pi - 0.43440, math.pi + 0.43440, math.pi + 1.12611),
}
PEAK_CENTER_TOL = 1e-3
PEAK_MIN_HEIGHT = 0.999

H_C3, H_C3_TOL = 1.91612, 1e-4
H_C4, H_C4_TOL = 155.0 / 72.0, 1e-6
ROUTE_TOL = 1e-8  # series vs quadrature, on h and p_out
WALK_TOL = 1e-12  # series vs power iteration, up to a global sign
WALK_ORDER = 200

HITTING_GRAPHS = (
    "c3", "c4", "c5", "c8", "c12", "c16", "c20", "c24", "c30", "c31", "c36",
    "c3-c3", "c4-c4", "c3-c4-c3", "c3+c3", "c3+c4+c3",
)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (exit code, payload); ``check(payload)``
    returns None when the payload is right, else the reason it is wrong."""

    label: str
    run: Callable[[], tuple]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]


@dataclass(frozen=True)
class Outcome:
    label: str
    mode: str
    detail: str
    seconds: float
    digest: str


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def cli_op(label: str, argv: list, check) -> Op:
    """An operation that runs ``qgraph.cli.main(argv)`` with stdout captured."""

    def run():
        import qgraph.cli

        out = io.StringIO()
        with _env("QGRAPH_THREADS", QGRAPH_THREADS), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = qgraph.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue()

    return Op(label=label, run=run, check=check, digest=_sha_text)


def execute(op: Op) -> Outcome:
    """Run one operation, timing only the entry-point call, and classify it."""
    t0 = time.perf_counter()
    try:
        rc, payload = op.run()
    except Exception as exc:  # an escaping exception is a failed operation
        seconds = time.perf_counter() - t0
        return Outcome(op.label, type(exc).__name__, str(exc)[:200], seconds, "")
    seconds = time.perf_counter() - t0
    digest = op.digest(payload)
    if rc != 0:
        return Outcome(op.label, f"exit {rc}", "", seconds, digest)
    reason = op.check(payload)
    if reason is not None:
        return Outcome(op.label, "wrong", reason, seconds, digest)
    return Outcome(op.label, "ok", "", seconds, digest)


# ---------------------------------------------------------------------------
# Output checks.  Each takes the operation's payload and returns None or a
# one-line reason.
# ---------------------------------------------------------------------------


def check_peaks(graph: str):
    expected = PEAK_CENTERS[graph]

    def check(text: str):
        try:
            peaks = json.loads(text)
            centers = sorted(float(p["center"]) for p in peaks)
            heights = [float(p["height"]) for p in peaks]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable peaks output: {exc}"
        if len(centers) != len(expected):
            return f"{len(centers)} peaks, expected {len(expected)}"
        worst = max(abs(c - e) for c, e in zip(centers, expected))
        if not worst < PEAK_CENTER_TOL:
            return f"peak center off by {worst:.3e}"
        if not min(heights) >= PEAK_MIN_HEIGHT:
            return f"peak height {min(heights):.6f} < {PEAK_MIN_HEIGHT}"
        return None

    return check


def _parse_hitting(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    return values


def check_hitting(graph: str):
    def check(text: str):
        try:
            v = _parse_hitting(text)
            h, p, hq, pq = v["h"], v["p_out"], v["h_quadrature"], v["p_out_quadrature"]
        except (ValueError, KeyError) as exc:
            return f"unparseable hitting output: {exc}"
        if graph == "c3" and not abs(h - H_C3) < H_C3_TOL:
            return f"c3 h = {h!r}, expected {H_C3} +- {H_C3_TOL}"
        if graph == "c4":
            for name, value in (("h", h), ("h_quadrature", hq)):
                if not abs(value - H_C4) < H_C4_TOL:
                    return f"c4 {name} = {value!r}, expected 155/72 +- {H_C4_TOL}"
        if not abs(h - hq) < ROUTE_TOL:
            return f"series h {h!r} vs quadrature h {hq!r}"
        if not abs(p - pq) < ROUTE_TOL:
            return f"series p_out {p!r} vs quadrature p_out {pq!r}"
        return None

    return check


def check_walk(pair) -> str | None:
    a, b = pair
    if a.shape != (WALK_ORDER + 1,) or b.shape != (WALK_ORDER + 1,):
        return f"coefficient shapes {a.shape}, {b.shape}"
    dev = min(float(np.max(np.abs(a - b))), float(np.max(np.abs(a + b))))
    if not dev < WALK_TOL:
        return f"series vs power iteration differ by {dev:.3e}"
    return None


def walk_op(n: int) -> Op:
    """Acceptance criterion 10 for one preset, through the library API."""

    def run():
        import qgraph.closedforms
        import qgraph.graphs
        import qgraph.walks

        series = qgraph.walks.taylor_coefficients(
            qgraph.closedforms.cycle_nk_amplitude(n), WALK_ORDER
        )
        power = qgraph.walks.coefficients_via_power_iteration(
            qgraph.graphs.make_cycle_graph(n), WALK_ORDER
        )
        return 0, (series.coefficients, power.coefficients)

    return Op(label=f"crosscheck c{n}", run=run, check=check_walk, digest=_sha_arrays)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """The operations of one pass and the graphs they build.

    ``ops[0]`` doubles as the warm-up operation of set-up.
    """

    name: str
    ops: tuple
    graphs: tuple


def make_workload(name: str) -> Workload:
    if name == "peaks-chains":
        graphs = ("c3-c3", "c4-c4", "c3-c4-c3")
        ops = tuple(
            cli_op(f"peaks {g}", ["peaks", "--graph", g], check_peaks(g)) for g in graphs
        )
        return Workload(name, ops, graphs)
    if name == "hitting-mix":
        ops = tuple(
            cli_op(f"hitting {g}", ["hitting", "--graph", g], check_hitting(g))
            for g in HITTING_GRAPHS
        )
        return Workload(name, ops, HITTING_GRAPHS)
    if name == "walk-crosscheck":
        ops = tuple(walk_op(n) for n in range(3, 100))
        return Workload(name, ops, tuple(f"c{n}" for n in range(3, 100)))
    raise ValueError(f"unknown workload {name!r}")


def build_graphs(workload: Workload) -> list:
    """Graph construction for set-up: resolve every graph the workload names."""
    import qgraph.cli

    return [qgraph.cli.resolve_graph(g) for g in workload.graphs]


# ---------------------------------------------------------------------------
# Deliberately wrong outputs, at least one per check, for the self-check.
# ---------------------------------------------------------------------------


def _hitting_text(values: dict) -> str:
    return "".join(f"{k} = {fmt(x)}\n" for k, x in values.items())


def planted(workload: Workload, payload) -> list:
    """(label, check, right payload, wrong payload) cases built from ops[0]'s
    real payload; each check must accept the right payload and reject the
    wrong one."""
    if workload.name == "peaks-chains":
        op = workload.ops[0]
        shifted, low = json.loads(payload), json.loads(payload)
        shifted[0]["center"] += 2.0 * PEAK_CENTER_TOL
        low[-1]["height"] = PEAK_MIN_HEIGHT - 1e-3
        return [(op.label, op.check, payload, json.dumps(shifted)),
                (op.label, op.check, payload, json.dumps(low))]
    if workload.name == "hitting-mix":
        # ops[0] is hitting c3.  The c4 cases reuse its p_out values with
        # h = 155/72 on both routes; the route cases feed the c3 output to
        # the check of a graph with no reference value, moving one route.
        v = _parse_hitting(payload)
        c3_off = dict(v, h=v["h"] + 1e-3, h_quadrature=v["h_quadrature"] + 1e-3)
        c4 = dict(v, h=H_C4, h_quadrature=H_C4)
        c4_off = dict(c4, h=H_C4 + 2.0 * H_C4_TOL, h_quadrature=H_C4 + 2.0 * H_C4_TOL)
        h_off = dict(v, h=v["h"] + 5.0 * ROUTE_TOL)
        p_off = dict(v, p_out=v["p_out"] + 5.0 * ROUTE_TOL)
        c3, c4_check, c5 = check_hitting("c3"), check_hitting("c4"), check_hitting("c5")
        return [("hitting c3", c3, payload, _hitting_text(c3_off)),
                ("hitting c4", c4_check, _hitting_text(c4), _hitting_text(c4_off)),
                ("hitting c5", c5, payload, _hitting_text(h_off)),
                ("hitting c5", c5, payload, _hitting_text(p_off))]
    if workload.name == "walk-crosscheck":
        a, b = payload
        off = b.copy()
        off[len(off) // 2] += 1e-10
        return [(workload.ops[0].label, check_walk, (a, -b), (a, off))]
    raise ValueError(f"unknown workload {workload.name!r}")
