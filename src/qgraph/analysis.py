"""Transmission sweeps, symmetry checks, suppression bands, peaks, exports.

A sweep evaluates |T(kl)|^2 on a uniform grid, by Horner evaluation of the
lowest-terms rational forms for integer-length graphs on grids long enough
to pay for one extraction, and by the dense bond solver otherwise.  Inside
wide bands where the transmission is suppressed, chained cycle graphs
develop very narrow resonances of full transmission; the detectors here
locate those bands by interval arithmetic on the grid and then refine each
peak against the solver itself, since the interesting widths are only a few
grid steps wide: Brent's parabolic search for the center and Brent's zeroin
on the grid step that brackets each half-height crossing, both safeguarded
so that they keep their brackets and converge superlinearly.  Every
reported center, height and width is a solver evaluation.  All peaks of a
sweep are refined in lockstep, one batched solve per round, with the same
numbers bit for bit as one point at a time.  Every stdout format of the
command line (sweep, peaks, transmit, walk and hitting) is written here.
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

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


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
    # Where a below-floor run starts and one past where it ends, alternately.
    below = np.zeros(len(kl) + 1, dtype=bool)
    np.less(sweep.t2, floor, out=below[1:])
    edges = np.flatnonzero(below[1:] != below[:-1])
    # Merging only widens clusters and keeps the gaps between them, so one
    # pass with a stack reaches the fixed point of merging in any order.
    clusters = []  # [lo, hi, total below-floor width]
    for i, j in zip(edges[::2], np.r_[edges[1::2], len(kl)] - 1):
        lo, hi = kl[i], kl[j]
        width = hi - lo
        while clusters and lo - clusters[-1][1] < clusters[-1][2] + width:
            lo, _, below = clusters.pop()
            width = below + width
        clusters.append([lo, hi, width])
    return [(float(lo), float(hi)) for lo, hi, _ in clusters]


def _tolerance(x: float) -> float:
    """Half of REFINE_TOL, or 2 eps |x| where that is coarser, so a step of it moves x."""
    return max(0.5 * REFINE_TOL, 2.0 * _EPS * abs(x))


def _brent_max(a: float, b: float):
    """Brent's search for the maximum of |T|^2 on [a, b]: (x, |T(x)|^2).

    Parabolic interpolation through the three best points, with a golden
    step whenever the parabola's vertex falls outside the bracket or does
    not halve the step before last (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5).  The bracket only shrinks, and the
    search stops once both its ends lie within REFINE_TOL of the best point
    evaluated, x, which is returned with its value.
    """
    x = w = v = a + _GOLDEN * (b - a)
    (fx,) = yield (x,)
    fw = fv = fx
    d = e = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2.0 * (tol := _tolerance(x)):
        parabola = False
        if abs(e) > tol:
            # the vertex x + p / q of the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            parabola = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabola:
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:  # too near an end: step inward
                d = math.copysign(tol, a + b - 2.0 * x)
        else:  # golden step into the larger side
            e = b - x if 2.0 * x < a + b else a - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        (fu,) = yield (u,)
        if fu >= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
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
    """Where |T|^2 falls to ``half`` between a grid bracket's ends: Brent's zeroin.

    The first round asks for both ends.  If |T|^2 is above ``half`` at
    ``inside`` and not at ``outside``, bisection, secant and inverse
    quadratic interpolation steps on |T|^2 - half (Brent 1973, ch. 4) shrink
    a bracket of solver values to REFINE_TOL, and its end where |T|^2 is
    nearer ``half`` is returned.  Otherwise the solver shows no fall through
    ``half`` between the ends (half height is not reached before the grid
    ends, say), and with no further solves the answer is where bisection of
    [inside, outside] to REFINE_TOL ends when every midpoint lies on the
    same side of ``half`` as ``outside``.
    """
    fa, fb = yield (inside, outside)
    a, b, fa, fb = inside, outside, fa - half, fb - half
    if not fa > 0.0 >= fb:
        while True:
            a, b = (0.5 * (a + b), b) if fb > 0.0 else (a, 0.5 * (a + b))
            if abs(b - a) <= 2.0 * _tolerance(b):
                return 0.5 * (a + b)
    # b is the latest point, c the end on the other side of half, a the point before b
    c, fc, d = a, fa, b - a
    e = d  # the step before last
    while True:
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = _tolerance(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        interpolate = abs(e) >= tol and abs(fa) > abs(fb)
        if interpolate:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            interpolate = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if interpolate else (m, m)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        (fb,) = yield (b,)
        fb -= half
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


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

    Grid-level local maxima inside each band seed Brent's maximization of
    the solver's |T|^2 between the neighboring grid points (see _brent_max;
    centers to REFINE_TOL = 1e-9).  In the grid step where each half-height
    crossing lies (see _grid_bracket), Brent's zeroin brackets the crossing
    by solver values to REFINE_TOL (see _half_crossing), all peaks in
    lockstep.  Peaks whose refined height stays below ``min_height`` are
    dropped.  Heights are always direct solver evaluations, never grid
    interpolations.
    """
    if not (0.0 < min_height <= 1.0):
        raise ValueError(f"min_height must be in (0, 1], got {min_height!r}")
    kl, t2 = sweep.kl, sweep.t2
    seeds = []  # (grid index, band)
    for band in detect_suppression_bands(sweep):
        # the band's grid points with a neighbour on each side (its ends are grid points)
        lo = max(int(np.searchsorted(kl, band[0])), 1)
        hi = min(int(np.searchsorted(kl, band[1], "right")), len(kl) - 1)
        mid = t2[lo:hi]
        # Refinement recovers the true height of undersampled peaks, so the
        # grid filter on the local maxima stays deliberately loose.
        peak = (mid > t2[lo - 1:hi - 1]) & (mid >= t2[lo + 1:hi + 1]) & (mid >= 0.5 * min_height)
        seeds += [(lo + int(i), band) for i in np.flatnonzero(peak)]
    maxima = _lockstep(
        sweep.graph, [_brent_max(float(kl[i - 1]), float(kl[i + 1])) for i, _ in seeds]
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
