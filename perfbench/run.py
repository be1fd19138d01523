"""qgraph benchmark: checked workloads timed through the public entry points.

Run from the repository root (it imports qgraph from ``src/``):

    python3 perfbench/run.py --workload peaks-chains --seed 1 --seconds 38 --trace 0

Workloads: peaks-chains, hitting-mix, walk-crosscheck (see ``workloads.py``
and ``README.md``).  A run

1. sets up in this process (import, graph construction, one warm-up
   operation);
2. self-checks the accounting: deliberately wrong outputs for each of the
   workload's checkers, an escaping exception, an unexpected exit code and
   output that changes between passes must each count as a failure;
3. repeats passes over all operations of the workload, in an order drawn
   from ``--seed``, for ``--seconds`` (at least MIN_PASSES passes);
4. with ``--trace 0``, sets up again in fresh child processes, one at a
   time between passes and spread over the run (MIN_SETUPS to MAX_SETUPS
   set-ups in all), and reports the median as ``setup_s``.

With ``--trace 0`` the last stdout line is one JSON object carrying the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones (see ``tracing.py``), and
the JSON carries the per-layer metrics listed in ``BENCHMARK.json``.  Every
earlier stdout line is a human-readable report: machine facts, each metric
with its unit, pass-time quartiles and sample count, and the SHA-256 of
each operation's output.

Operations listed in ``manifest.json`` as known failures (at the commit
that added this benchmark) still count against ``ok_share``; they are not counted in
``failed`` as long as they fail no worse than listed (see ``rank``).
Any other failure is counted in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs about SETUP_BUDGET_S / (one set-up's time) times, at least
# MIN_SETUPS and at most MAX_SETUPS, so cheap set-ups get a steadier median
# without making expensive ones slow.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 5.0
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
PROBE_TIMEOUT_S = 120

# One BLAS thread, so the load is one thread of one process and BLAS threads
# do not add their own scheduling noise.  Set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


class SelfCheckError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("peaks-chains", "hitting-mix", "walk-crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def rank(mode: str) -> int:
    """Order outcomes from worst to best: wrong < exception or other exit < exit 2 < ok.

    A listed failure is excused while its mode ranks no lower than the listed
    one, so an exception that becomes another exception or a non-zero exit
    other than 2 (the same tier) is still excused; a wrong output never is.
    """
    return {"wrong": 0, "exit 2": 2, "ok": 3}.get(mode, 1)


class Tally:
    """Outcome accounting for one run.

    ``ok`` operations exited 0 with a checked, bit-stable output.
    ``known`` operations failed as ``manifest.json`` lists them (or less
    badly).  Everything else is ``failed``.
    """

    def __init__(self, known: dict):
        self.known_modes = known
        self.attempted = self.ok = self.known = self.failed = 0
        self.digests = {}
        self.failures = {}
        self.known_seen = {}

    def record(self, o) -> None:
        self.attempted += 1
        mode, detail = o.mode, o.detail
        if mode == "ok":
            first = self.digests.setdefault(o.label, o.digest)
            if o.digest != first:
                mode, detail = "wrong", "output differs from an earlier pass"
        if mode == "ok":
            self.ok += 1
            return
        expected = self.known_modes.get(o.label)
        if expected is not None and mode != "wrong" and rank(mode) >= rank(expected):
            self.known += 1
            self.known_seen[o.label] = mode
            return
        self.failed += 1
        self.failures.setdefault(o.label, f"{mode}: {detail}")

    @property
    def ok_share(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0


def load_manifest() -> dict:
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "qgraph", "__init__.py")):
        sys.stderr.write(f"perfbench: no qgraph package under {SRC}; "
                         "run from the root of a full checkout\n")
        sys.exit(2)


def set_up(name: str):
    """Import, build the workload's graphs and run its first operation once.

    Returns (workload, warm-up payload or None, seconds).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qgraph.cli  # noqa: F401  (timed: import is part of set-up)
    import workloads

    if not os.path.abspath(qgraph.cli.__file__).startswith(SRC + os.sep):
        raise SelfCheckError(f"imported qgraph from {qgraph.cli.__file__}, not {SRC}")
    workload = workloads.make_workload(name)
    workloads.build_graphs(workload)
    op = workload.ops[0]
    try:
        rc, payload = op.run()
    except Exception:  # counted when the passes run the same operation
        rc, payload = None, None
    if rc != 0 or op.check(payload) is not None:
        payload = None
    return workload, payload, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by that interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SelfCheckError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def self_check(workload, warm_payload, known: dict) -> None:
    """Feed known-bad outcomes through a scratch Tally; each must count as failed.

    Each planted wrong output comes with a right one for the same checker,
    which must pass, so a checker that rejects everything is caught too.
    """
    from workloads import Outcome, planted

    tally = Tally(known)
    expected_failed = 0
    if warm_payload is not None:
        for label, check, good, bad in planted(workload, warm_payload):
            if check(good) is not None:
                raise SelfCheckError(f"{label}: right output rejected: {check(good)}")
            reason = check(bad)
            tally.record(Outcome(label, "ok" if reason is None else "wrong", reason or "",
                                 0.0, ""))
            expected_failed += 1
    for mode in ("RuntimeError", "exit 1"):
        tally.record(Outcome("self-check", mode, "", 0.0, ""))
        expected_failed += 1
    tally.record(Outcome("self-check stable", "ok", "", 0.0, "a"))
    tally.record(Outcome("self-check stable", "ok", "", 0.0, "b"))
    expected_failed += 1
    for label, mode in known.items():
        tally.record(Outcome(label, mode, "", 0.0, ""))
        tally.record(Outcome(label, "wrong", "", 0.0, ""))
        expected_failed += 1
    if tally.failed != expected_failed or tally.known != len(known) or tally.ok != 1:
        raise SelfCheckError(
            f"self-check counted {tally.failed} failed and {tally.known} known of "
            f"{expected_failed} and {len(known)} planted: {tally.failures}"
        )


def run_passes(workload, tally, order_rng, seconds: float, min_passes: int,
               after_pass=None) -> list:
    """Passes over every operation in a shuffled order; returns each pass's time.

    Passes run while one more would still end within ``seconds`` of pass
    wall time (at the mean rate so far), and at least ``min_passes`` run.
    ``after_pass(spent)``, if given, runs after each pass with the pass wall
    time spent so far; its own time is not counted.

    A pass's time is the sum of its operations' entry-point calls; output
    checks and hashing run outside it.
    """
    from workloads import execute

    times = []
    spent = 0.0
    while len(times) < min_passes or spent * (len(times) + 1) / len(times) <= seconds:
        t0 = time.perf_counter()
        ops = list(workload.ops)
        order_rng.shuffle(ops)
        pass_s = 0.0
        for op in ops:
            outcome = execute(op)
            pass_s += outcome.seconds
            tally.record(outcome)
        times.append(pass_s)
        spent += time.perf_counter() - t0
        if after_pass is not None:
            after_pass(spent)
    return times


def setup_sampler(args, first: float):
    """Set-up samples spread over the run, so one slow stretch of a shared
    host does not set them all.

    Returns (samples, after_pass, finish): ``after_pass(spent)`` runs the
    fresh-process set-ups that are due by then, the k-th of ``target`` once
    ``spent`` reaches k/target of ``--seconds``; ``finish()`` runs any still
    missing.
    """
    target = min(MAX_SETUPS, max(MIN_SETUPS, int(SETUP_BUDGET_S / max(first, 1e-3))))
    samples = [first]

    def after_pass(spent: float) -> None:
        while len(samples) < target and spent >= args.seconds * len(samples) / target:
            samples.append(probe_setup(args.workload, args.seed))

    def finish() -> None:
        while len(samples) < target:
            samples.append(probe_setup(args.workload, args.seed))

    return samples, after_pass, finish


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def read_git_head(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "qgraph")):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine_facts() -> dict:
    import numpy as np
    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no mode="dicts"
        blas_desc = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "qgraph_threads": workloads.QGRAPH_THREADS,
        "git_commit": read_git_head(ROOT),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    try:
        workload, warm_payload, setup_main = set_up(args.workload)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        manifest = load_manifest()
        known = manifest["known_failures"][args.workload]
        self_check(workload, warm_payload, known)

        tally = Tally(known)
        order_rng = random.Random(f"order:{args.seed}")
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("facts: " + json.dumps(machine_facts(), sort_keys=True))

        if args.trace:
            metrics = traced_run(args, workload, tally, order_rng, manifest)
        else:
            setup_samples, after_pass, finish = setup_sampler(args, setup_main)
            times = run_passes(workload, tally, order_rng, args.seconds, MIN_PASSES,
                               after_pass)
            finish()
            metrics = end_to_end(times, tally, setup_samples)
    except SelfCheckError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3

    report_outcomes(tally)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end(times, tally, setup_samples) -> dict:
    q1, med, q3 = quartiles(times)
    s1, smed, s3 = quartiles(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": {"value": med, "unit": "s"},
        "ok_per_s": {"value": tally.ok / len(times) / med, "unit": "1/s"},
        "ok_share": {"value": tally.ok_share, "unit": "ratio"},
        "setup_s": {"value": smed, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    print(f"pass_s: median {med:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, n={len(times)} passes")
    print(f"setup_s: median {smed:.4f} s, q1 {s1:.4f} s, q3 {s3:.4f} s, n={len(setup_samples)}")
    print(f"ok_share: {tally.ok} ok of {tally.attempted} attempted "
          f"(failed_share {1.0 - tally.ok_share:.4f}: {tally.known} known, "
          f"{tally.failed} unexpected)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return metrics


def traced_run(args, workload, tally, order_rng, manifest) -> dict:
    import qgraph.solver
    from tracing import Tracer, layer_metrics

    half = args.seconds / 2.0
    plain = run_passes(workload, tally, order_rng, half, MIN_TRACE_PASSES)
    cache = getattr(qgraph.solver, "_assemble_cached", None)
    misses_before = cache.cache_info().misses if cache else 0
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, tally, order_rng, half, MIN_TRACE_PASSES)
    finally:
        tracer.uninstall()
    misses = (cache.cache_info().misses if cache else 0) - misses_before
    values = layer_metrics(tracer.spans, len(traced), misses)
    values["bench.traced_pass_s"] = statistics.median(traced)
    values["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"untraced pass_s: median {statistics.median(plain):.4f} s, n={len(plain)}; "
          f"traced pass_s: median {statistics.median(traced):.4f} s, n={len(traced)}; "
          f"{len(tracer.spans)} spans")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        moves = "; ".join(f"{e2e} on {', '.join(ws)}"
                          for e2e, ws in manifest["moves"].get(name, {}).items())
        print(f"metric {name} = {values[name]:.6g} {unit}"
              + (f" (should move {moves})" if moves else ""))
    return metrics


def report_outcomes(tally) -> None:
    for label in sorted(tally.digests):
        print(f"sha256 {tally.digests[label]} {label}")
    for label, mode in sorted(tally.known_seen.items()):
        print(f"known failure (listed in manifest.json): {label}: {mode}")
    for label, why in sorted(tally.failures.items()):
        print(f"FAILED {label}: {why}")


if __name__ == "__main__":
    sys.exit(main())
