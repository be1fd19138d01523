"""Command-line interface.

Every subcommand takes --graph with one of three source forms: a preset
cycle (c3 .. c99), a composition shorthand (c3+c3 joins cycles by merging
vertices, c3-c4-c3 joins them through unit bridging edges), or a path to a
JSON graph file.  Exit status is 0 on success, 1 on usage errors (unknown
preset, malformed file, bad ranges), and 2 on numerical failures
(unresolved singularities, truncation that cannot certify, poles, LAPACK,
hitting-time routes that disagree) and when memory runs out.

Numbers are printed with 17 significant digits and files are written
atomically, so identical invocations produce bit-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .analysis import (
    _check_grid_memory,
    detect_peaks,
    hitting_to_text,
    peaks_to_csv,
    peaks_to_json,
    sweep_to_csv,
    sweep_to_json,
    sweep_transmission,
    transmit_to_csv,
    walk_to_csv,
)
from .compose import compose_series, parse_series_shorthand
from .graphs import (
    _physical_memory,
    atomic_write_text,
    load_graph,
    make_cycle_graph,
    scale_lengths,
    validate_graph,
)
from .solver import extract_rational_amplitude, scattering_or_limit
from .walks import (
    coefficients_via_power_iteration,
    taylor_coefficients,
    walk_stats_by_quadrature,
    walk_stats_exact,
)

_PRESET_RE = re.compile(r"[cC](\d+)\Z")
_COMPOSITION_RE = re.compile(r"[cC]\d+([+-][cC]\d+)+\Z")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def resolve_graph(source: str, length_scale: float = 1.0):
    """Turn a --graph argument into a QuantumGraph.

    Presets win over compositions, compositions over file paths; the error
    message spells out all three forms when nothing matches.
    """
    graph = None
    m = _PRESET_RE.fullmatch(source.strip())
    if m:
        n = int(m.group(1))
        if not 3 <= n <= 99:
            raise ValueError(f"--graph: unknown preset {source!r} (presets are c3..c99)")
        graph = make_cycle_graph(n)
    elif _COMPOSITION_RE.fullmatch(source.strip()):
        graph = compose_series(parse_series_shorthand(source))
    elif os.path.exists(source):
        graph = load_graph(source)
    else:
        raise ValueError(
            f"--graph: {source!r} is not a preset (c3..c99), a composition "
            "(like c3+c3 or c3-c4-c3), or an existing graph file"
        )
    if length_scale != 1.0:
        graph = scale_lengths(graph, length_scale)
    return graph


def _graph_of(args):
    if args.length_scale <= 0:
        raise ValueError(f"--length-scale: must be positive, got {args.length_scale}")
    return resolve_graph(args.graph, args.length_scale)


def cmd_transmit(args) -> str:
    graph = _graph_of(args)
    return transmit_to_csv(scattering_or_limit(graph, args.kl))


def cmd_sweep(args) -> str:
    graph = _graph_of(args)
    sweep = sweep_transmission(graph, args.kl_min, args.kl_max, args.samples)
    return sweep_to_csv(sweep) if args.format == "csv" else sweep_to_json(sweep)


def cmd_walk(args) -> str:
    graph = _graph_of(args)
    if args.method == "series":
        series = taylor_coefficients(
            extract_rational_amplitude(graph), args.max_order
        )
    else:
        series = coefficients_via_power_iteration(graph, args.max_order)
    return walk_to_csv(series)


def cmd_hitting(args) -> str:
    graph = _graph_of(args)
    stats = walk_stats_exact(graph, tolerance=args.tolerance)
    quad = walk_stats_by_quadrature(extract_rational_amplitude(graph))
    # The quadrature is the check: routes that disagree print nothing.
    limit = max(args.tolerance, 1e-8)
    for name, exact, check in (("h", stats.hitting_time, quad.hitting_time),
                               ("p_out", stats.p_out, quad.p_out)):
        if not abs(exact - check) <= limit:
            raise ArithmeticError(
                f"{name} = {exact!r} and {name}_quadrature = {check!r} differ by "
                f"more than {limit:.1e}"
            )
    return hitting_to_text(stats, quad)


def cmd_peaks(args) -> str:
    graph = _graph_of(args)
    if not 0 < args.resolution < np.inf:
        raise ValueError(f"--resolution: must be positive and finite, got {args.resolution}")
    if not (0 < args.kl_min < args.kl_max < np.inf):
        raise ValueError(
            f"--kl-min/--kl-max: need 0 < min < max < inf, got {args.kl_min}, {args.kl_max}"
        )
    steps = (args.kl_max - args.kl_min) / args.resolution
    _check_grid_memory(steps + 1, _physical_memory(),
                       f"--resolution: {args.resolution} gives {steps + 1:.3g}",
                       args.kl_min, args.kl_max)
    samples = int(round(steps)) + 1
    if samples < 2:
        raise ValueError(
            f"--resolution: {args.resolution} leaves fewer than two grid points "
            f"on [{args.kl_min}, {args.kl_max}]"
        )
    sweep = sweep_transmission(graph, args.kl_min, args.kl_max, samples)
    peaks = detect_peaks(sweep, min_height=args.min_height)
    return peaks_to_json(peaks) if args.format == "json" else peaks_to_csv(peaks)


def cmd_validate(args) -> str:
    graph = _graph_of(args)
    return str(validate_graph(graph)) + "\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="qgraph", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True,
                       help="preset (c3..c99), composition (c3+c3, c3-c4-c3), or JSON file")
        p.add_argument("--length-scale", type=float, default=1.0,
                       help="multiply all edge lengths (default 1)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(handler=handler)
        return p

    p = add("transmit", cmd_transmit, "two-port amplitudes at one wavenumber")
    p.add_argument("--kl", type=float, required=True, help="dimensionless wavenumber")

    p = add("sweep", cmd_sweep, "transmission over a uniform kl grid")
    p.add_argument("--kl-min", type=float, required=True)
    p.add_argument("--kl-max", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("walk", cmd_walk, "walk coefficients c_m and step probabilities")
    p.add_argument("--max-order", type=int, default=200)
    p.add_argument("--method", choices=("series", "power"), default="series",
                   help="rational-series recurrence or bond-map power iteration")

    p = add("hitting", cmd_hitting, "exit probability and conditional hitting time")
    p.add_argument("--tolerance", type=float, default=1e-8)

    p = add("peaks", cmd_peaks, "full-transmission peaks inside suppression bands")
    p.add_argument("--resolution", type=float, default=1e-4,
                   help="sweep grid spacing used for peak hunting")
    p.add_argument("--kl-min", type=float, default=0.01)
    p.add_argument("--kl-max", type=float, default=2.0 * np.pi - 0.01)
    p.add_argument("--min-height", type=float, default=0.99)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    add("validate", cmd_validate, "check graph invariants and report violations")
    return parser


@functools.cache
def _parser() -> _Parser:
    # One parser per process; its handlers look their callees up at call time.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.handler(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError but is a numerical failure.
        print(f"qgraph: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"qgraph: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"qgraph: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
