"""Transmission sweeps, symmetry checks, suppression bands, peaks, exports.

A sweep evaluates |T(kl)|^2 on a uniform grid, by Horner evaluation of the
lowest-terms rational forms for integer-length graphs on grids long enough
to pay for one extraction, and by the dense bond solver otherwise.  Inside
wide bands where the transmission is suppressed, chained cycle graphs
develop very narrow resonances of full transmission; the detectors here
locate those bands by interval arithmetic on the grid and then refine each
peak against the solver itself (golden-section for the center, bisection
of the grid step that brackets each half-height crossing), since the
interesting widths are only a few grid steps wide.  Every reported center,
height and width is a solver evaluation.  All peaks of a sweep are refined
in lockstep, one batched solve per round, with the same numbers bit for bit
as one point at a time.  Every stdout format of the command line
(sweep, peaks, transmit, walk and hitting) is written here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import QuantumGraph, _physical_memory, atomic_write_text
from .solver import _repair, _sweep_amplitudes, solve_many

DEFAULT_BAND_FLOOR = 0.01
FULL_TRANSMISSION_HEIGHT = 0.999
REFINE_TOL = 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class Sweep:
    """Uniform-grid transmission data with the graph it came from.

    ``kl``, ``t`` and ``r`` are kept as read-only views of the arrays
    given, not copies: the caller's arrays stay writeable, and writing to
    them changes the sweep, except ``t2``, which is computed from ``t`` on
    first use and kept.
    """

    graph: QuantumGraph
    kl: np.ndarray
    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        kl = np.asarray(self.kl, dtype=float)
        if kl.ndim != 1 or len(kl) < 2 or not np.all(np.diff(kl) > 0):
            raise ValueError("sweep grid must be 1-D and strictly increasing")
        for name, arr in (("kl", kl), ("t", np.asarray(self.t)), ("r", np.asarray(self.r))):
            if arr.shape != kl.shape:
                raise ValueError(f"sweep {name} has shape {arr.shape}, the grid {kl.shape}")
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def resolution(self) -> float:
        """The grid step, kl[1] - kl[0]."""
        return float(self.kl[1] - self.kl[0])

    @functools.cached_property
    def t2(self) -> np.ndarray:
        """|t|^2 on the grid, computed once and read-only."""
        t2 = np.abs(self.t) ** 2
        t2.setflags(write=False)
        return t2

    @property
    def r2(self) -> np.ndarray:
        return np.abs(self.r) ** 2


@dataclass(frozen=True)
class PeakReport:
    """One resonance: solver-refined center/height, FWHM, enclosing band."""

    center: float
    height: float
    width: float
    band: tuple

    @property
    def is_full_transmission(self) -> bool:
        return self.height >= FULL_TRANSMISSION_HEIGHT


def _check_grid_memory(points, memory: float, count: str, kl_min, kl_max) -> None:
    """Refuse a grid of ``points`` whose t alone, 16 bytes a point, exceeds ``memory`` bytes.

    ``points`` may be a float (inf and nan are refused) or an int of any
    size, so the check runs before int() or any allocation; ``count``
    opens the message.
    """
    if not points <= memory / 16:
        raise ValueError(
            f"{count} grid points on [{kl_min}, {kl_max}], more than physical memory holds"
        )


def sweep_transmission(
    graph: QuantumGraph,
    kl_min: float,
    kl_max: float,
    samples: int,
) -> Sweep:
    """Evaluate the two-port amplitudes on a uniform inclusive grid.

    Graphs with integer edge lengths are evaluated from their lowest-terms
    rational forms when the grid is long enough that one extraction costs
    less than a dense bond solve per point; every other sweep uses the
    solver.  On either route, on-shell singular points get the solver's
    two-sided limit policy.  A solver-route grid of several batches is
    solved on the usable cores (see ``solve_many``); the output does not
    depend on the core count.  A grid whose t alone, 16 bytes a point,
    would not fit in physical memory raises ValueError before any
    allocation.
    """
    if not (0 < kl_min < kl_max < math.inf):
        raise ValueError(f"need 0 < kl_min < kl_max < inf, got {kl_min!r}, {kl_max!r}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    _check_grid_memory(samples, _physical_memory(), f"samples: {samples}", kl_min, kl_max)
    grid = np.linspace(kl_min, kl_max, int(samples))
    sweep = Sweep(graph, grid, *_sweep_amplitudes(graph, grid))
    t2max = float(np.max(sweep.t2))
    if not np.isfinite(t2max) or t2max > 1.0 + 1e-9:
        raise ArithmeticError(
            f"sweep produced |T|^2 up to {t2max}; singularities were not resolved"
        )
    return sweep


def check_reflection_symmetry(sweep: Sweep) -> float:
    """Max over mirror pairs of | |T(pi+x)|^2 - |T(pi-x)|^2 |.

    The grid must itself be symmetric about kl = pi (each point pairs with
    its mirror); asymmetric grids are rejected instead of silently
    interpolated.
    """
    kl = sweep.kl
    mismatch = np.max(np.abs((kl + kl[::-1]) - 2.0 * np.pi))
    if mismatch > 1e-9:
        raise ValueError(
            f"sweep grid is not symmetric about pi (mismatch {mismatch:.3e})"
        )
    t2 = sweep.t2
    return float(np.max(np.abs(t2 - t2[::-1])))


def detect_suppression_bands(sweep: Sweep, floor: float = DEFAULT_BAND_FLOOR):
    """Maximal intervals where |T|^2 stays below the floor, peaks excluded.

    Grid runs below the floor become intervals; an above-floor gap between
    two neighboring intervals is absorbed when it is narrower than their
    combined below-floor width, so narrow resonances do not split a band
    while genuinely transmitting regions do.  Returns a list of
    (kl_low, kl_high) pairs.
    """
    if not (0.0 < floor < 1.0):
        raise ValueError(f"floor must be in (0, 1), got {floor!r}")
    kl = sweep.kl
    # +1 where a below-floor run starts, -1 one past where it ends.
    steps = np.diff((sweep.t2 < floor).astype(np.int8), prepend=0, append=0)
    # Merging only widens clusters and keeps the gaps between them, so one
    # pass with a stack reaches the fixed point of merging in any order.
    clusters = []  # [lo, hi, total below-floor width]
    for i, j in zip(np.nonzero(steps == 1)[0], np.nonzero(steps == -1)[0] - 1):
        lo, hi = kl[i], kl[j]
        width = hi - lo
        while clusters and lo - clusters[-1][1] < clusters[-1][2] + width:
            lo, _, below = clusters.pop()
            width = below + width
        clusters.append([lo, hi, width])
    return [(float(lo), float(hi)) for lo, hi, _ in clusters]


def _golden_max(a: float, b: float):
    """Golden-section search for the maximum on [a, b]: (x, |T(x)|^2)."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = yield (c, d)
    while (b - a) > REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            (fc,) = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            (fd,) = yield (d,)
    x = 0.5 * (a + b)
    (fx,) = yield (x,)
    return x, fx


def _grid_bracket(kl, t2, center: float, half: float, side: int):
    """(inside, outside): the grid step past center (side -1: left) where t2 falls to half.

    ``outside`` is the first grid point with t2 <= half, or the end of the
    grid; ``inside`` is the grid point before it, or center.
    """
    if side < 0:  # mirror: negation is exact, so the left side is the right one
        kl, t2, center = -kl[::-1], t2[::-1], -center
    start = int(np.searchsorted(kl, center, "right"))
    below = np.flatnonzero(t2[start:] <= half)
    stop = start + int(below[0]) if len(below) else len(kl) - 1
    inside = float(kl[stop - 1]) if stop > start else center
    return side * inside, side * float(kl[stop])


def _half_crossing(inside: float, outside: float, half: float):
    """Where |T|^2 falls to ``half``: [inside, outside] bisected, at least once, to REFINE_TOL."""
    while True:
        mid = 0.5 * (inside + outside)
        (value,) = yield (mid,)
        if value > half:
            inside = mid
        else:
            outside = mid
        if abs(outside - inside) <= REFINE_TOL:
            return 0.5 * (inside + outside)


def _lockstep(graph: QuantumGraph, searches: list) -> list:
    """Results of the searches, run together with one solve_many per round.

    A search is a generator that yields a tuple of kl values, is sent |T|^2
    there, and returns its result.  Each value is bit for bit the |T|^2 of
    a one-point solve under the singular-point policy: a point's solve does
    not depend on its batch, and ``_repair`` gives a singular one the limit.
    """
    results, asks = [None] * len(searches), [next(search) for search in searches]
    while any(asks):
        points = np.array([x for ask in asks for x in ask])
        t, _ = _repair(graph, points, *solve_many(graph, points))
        # Python's abs, as in ScatteringResult.t2: numpy's can differ in the last bit.
        values = [abs(ti) ** 2 for ti in t.tolist()]
        for i, ask in enumerate(asks):
            try:
                asks[i] = searches[i].send(values[:len(ask)]) if ask else ()
            except StopIteration as done:
                results[i], asks[i] = done.value, ()
            del values[:len(ask)]
    return results


def detect_peaks(sweep: Sweep, min_height: float = 0.99):
    """Solver-refined transmission peaks inside the suppression bands.

    Grid-level local maxima inside each band seed a golden-section
    maximization of the solver's |T|^2 between the neighboring grid points
    (centers to 1e-9).  The grid step where each half-height crossing lies
    (see _grid_bracket) is bisected against the solver to 1e-9, all peaks in
    lockstep.  Peaks whose refined height stays below ``min_height`` are
    dropped.  Heights are always direct solver evaluations, never grid
    interpolations.
    """
    if not (0.0 < min_height <= 1.0):
        raise ValueError(f"min_height must be in (0, 1], got {min_height!r}")
    kl, t2 = sweep.kl, sweep.t2
    # Refinement recovers the true height of undersampled peaks, so the grid
    # filter on the local maxima stays deliberately loose.
    mid = t2[1:-1]
    seed = np.r_[False, (mid > t2[:-2]) & (mid >= t2[2:]) & (mid >= 0.5 * min_height), False]
    seeds = [(i, band) for band in detect_suppression_bands(sweep)
             for i in np.nonzero(seed & (kl >= band[0]) & (kl <= band[1]))[0]]
    maxima = _lockstep(
        sweep.graph, [_golden_max(float(kl[i - 1]), float(kl[i + 1])) for i, _ in seeds]
    )

    kept = []  # (center, height, band)
    for (center, height), (_, band) in zip(maxima, seeds):
        if height < min_height:
            continue
        if kept and abs(center - kept[-1][0]) < 0.5 * sweep.resolution \
                and kept[-1][2] == band:
            continue
        kept.append((center, height, band))

    crossings = _lockstep(sweep.graph, [
        _half_crossing(*_grid_bracket(kl, t2, center, 0.5 * height, side), 0.5 * height)
        for center, height, _ in kept for side in (-1, 1)
    ])
    return [PeakReport(center=c, height=h, width=right - left, band=b)
            for (c, h, b), left, right in zip(kept, crossings[::2], crossings[1::2])]


# ---------------------------------------------------------------------------
# Exports.  All numbers are written with 17 significant digits so files
# round-trip exactly, and writes go through a temp file plus rename.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of numbers."""
    return "".join([header, "\n", *(",".join(map(_fmt, row)) + "\n" for row in rows)])


def _json(header: str, rows) -> str:
    """An array with one object per row, keyed by the header; a tuple is an array."""
    def value(x):
        return f"[{', '.join(map(_fmt, x))}]" if isinstance(x, tuple) else _fmt(x)

    keys = [f'"{key}": ' for key in header.split(",")]
    objects = ["  {" + ", ".join(k + value(x) for k, x in zip(keys, row)) + "}" for row in rows]
    return "[\n" + ",\n".join(objects) + "\n]\n" if objects else "[]\n"


_AMPLITUDE_HEADER = "kl,re_t,im_t,t2,r2"


def sweep_to_csv(sweep: Sweep) -> str:
    return _csv(_AMPLITUDE_HEADER,
                zip(sweep.kl, sweep.t.real, sweep.t.imag, sweep.t2, sweep.r2))


def sweep_to_json(sweep: Sweep) -> str:
    return _json(_AMPLITUDE_HEADER,
                 zip(sweep.kl, sweep.t.real, sweep.t.imag, sweep.t2, sweep.r2))


def write_sweep_csv(sweep: Sweep, path: str) -> None:
    atomic_write_text(path, sweep_to_csv(sweep))


def transmit_to_csv(res) -> str:
    """One ScatteringResult as a one-row sweep CSV."""
    return _csv(_AMPLITUDE_HEADER, [(res.kl, res.t_global.real, res.t_global.imag,
                                     res.t2, res.r2)])


def walk_to_csv(series) -> str:
    """Walk coefficients c_m of a WalkSeries with their step probabilities."""
    c = series.coefficients
    return _csv("m,re_c,im_c,p", zip(range(len(c)), c.real, c.imag, abs(c) ** 2))


def hitting_to_text(stats, quad) -> str:
    """h and p_out of one WalkStats, then those of its quadrature check."""
    return (
        f"h = {_fmt(stats.hitting_time)}\n"
        f"p_out = {_fmt(stats.p_out)}\n"
        f"h_quadrature = {_fmt(quad.hitting_time)}\n"
        f"p_out_quadrature = {_fmt(quad.p_out)}\n"
    )


def peaks_to_json(peaks) -> str:
    return _json("center,height,fwhm,band",
                 ((p.center, p.height, p.width, p.band) for p in peaks))


def peaks_to_csv(peaks) -> str:
    return _csv("center,height,fwhm,band_lo,band_hi",
                ((p.center, p.height, p.width, *p.band) for p in peaks))


def write_peaks_json(peaks, path: str) -> None:
    atomic_write_text(path, peaks_to_json(peaks))
