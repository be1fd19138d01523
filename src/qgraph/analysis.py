"""Transmission sweeps, symmetry checks, suppression bands, peaks, exports.

A sweep evaluates |T(kl)|^2 on a uniform grid, by Horner evaluation of the
lowest-terms rational forms for integer-length graphs on grids long enough
to pay for one extraction, and by the dense bond solver otherwise.  Inside
wide bands where the transmission is suppressed, chained cycle graphs
develop very narrow resonances of full transmission; the detectors here
locate those bands by interval arithmetic on the grid and then refine each
peak against the solver itself (golden-section for the center, bisection
for the half-height crossings), since the interesting widths are only a few
grid steps wide.  The grid therefore only seeds the search: every reported
center, height and width is a solver evaluation.  All peaks of a sweep are
refined in lockstep, one batched solve per round, with the same numbers bit
for bit as one point at a time.  Sweep and peak CSV and JSON are formatted
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import QuantumGraph, atomic_write_text
from .solver import _repair, _sweep_amplitudes, solve_many

DEFAULT_BAND_FLOOR = 0.01
FULL_TRANSMISSION_HEIGHT = 0.999
REFINE_TOL = 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MARCH_BLOCK = 16


@dataclass(frozen=True, eq=False)
class Sweep:
    """Uniform-grid transmission data with the graph it came from."""

    graph: QuantumGraph
    kl: np.ndarray
    t: np.ndarray
    r: np.ndarray
    resolution: float

    def __post_init__(self):
        kl = np.asarray(self.kl, dtype=float)
        if kl.ndim != 1 or len(kl) < 2 or not np.all(np.diff(kl) > 0):
            raise ValueError("sweep grid must be 1-D and strictly increasing")
        for name in ("kl", "t", "r"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def t2(self) -> np.ndarray:
        return np.abs(self.t) ** 2

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
    depend on the core count.
    """
    if not (0 < kl_min < kl_max < math.inf):
        raise ValueError(f"need 0 < kl_min < kl_max < inf, got {kl_min!r}, {kl_max!r}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    grid = np.linspace(kl_min, kl_max, int(samples))
    t, r = _sweep_amplitudes(graph, grid)
    t2max = float(np.max(np.abs(t) ** 2))
    if not np.isfinite(t2max) or t2max > 1.0 + 1e-9:
        raise ArithmeticError(
            f"sweep produced |T|^2 up to {t2max}; singularities were not resolved"
        )
    resolution = float(grid[1] - grid[0])
    return Sweep(graph=graph, kl=grid, t=t, r=r, resolution=resolution)


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
    clusters = [  # [lo, hi, total below-floor width]
        [kl[i], kl[j], kl[j] - kl[i]]
        for i, j in zip(np.nonzero(steps == 1)[0], np.nonzero(steps == -1)[0] - 1)
    ]

    merged = True
    while merged:
        merged = False
        for i in range(len(clusters) - 1):
            cur, nxt = clusters[i], clusters[i + 1]
            gap = nxt[0] - cur[1]
            if gap < cur[2] + nxt[2]:
                clusters[i:i + 2] = [[cur[0], nxt[1], cur[2] + nxt[2]]]
                merged = True
                break

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


def _half_crossing(center: float, half: float, step: float, bound: float):
    """Where |T|^2 falls to ``half`` between center and bound (step < 0: left).

    Marches in grid steps, _MARCH_BLOCK per round, to the first point at or
    below half or at the bound, then bisects the last step to REFINE_TOL.
    """
    outward, inward = (max, min) if step < 0 else (min, max)
    block = [center]
    while True:
        while len(block) < _MARCH_BLOCK and block[-1] != bound:
            block.append(outward(bound, block[-1] + step))
        values = yield tuple(block)
        stops = [x for x, v in zip(block, values) if v <= half or x == bound]
        if stops:
            break
        block = [outward(bound, block[-1] + step)]

    inside, outside = inward(center, stops[0] - step), stops[0]
    while abs(outside - inside) > REFINE_TOL:
        mid = 0.5 * (inside + outside)
        (value,) = yield (mid,)
        if value > half:
            inside = mid
        else:
            outside = mid
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
    (centers to 1e-9); the full width at half maximum comes from marching to
    the half-height crossings and bisecting them to 1e-9, all peaks in
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
        _half_crossing(center, 0.5 * height, step, float(bound))
        for center, height, _ in kept
        for step, bound in ((-sweep.resolution, kl[0]), (sweep.resolution, kl[-1]))
    ])
    return [PeakReport(center=c, height=h, width=right - left, band=b)
            for (c, h, b), left, right in zip(kept, crossings[::2], crossings[1::2])]


# ---------------------------------------------------------------------------
# Exports.  All numbers are written with 17 significant digits so files
# round-trip exactly, and writes go through a temp file plus rename.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def sweep_to_csv(sweep: Sweep) -> str:
    lines = ["kl,re_t,im_t,t2,r2"]
    t2, r2 = sweep.t2, sweep.r2
    for i in range(len(sweep.kl)):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    sweep.kl[i], sweep.t[i].real, sweep.t[i].imag, t2[i], r2[i],
                )
            )
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(sweep: Sweep) -> str:
    t2, r2 = sweep.t2, sweep.r2
    rows = [
        "  {" + f'"kl": {_fmt(sweep.kl[i])}, "re_t": {_fmt(sweep.t[i].real)}, '
        f'"im_t": {_fmt(sweep.t[i].imag)}, "t2": {_fmt(t2[i])}, '
        f'"r2": {_fmt(r2[i])}' + "}"
        for i in range(len(sweep.kl))
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def write_sweep_csv(sweep: Sweep, path: str) -> None:
    atomic_write_text(path, sweep_to_csv(sweep))


def peaks_to_json(peaks) -> str:
    rows = []
    for p in peaks:
        rows.append(
            "  {"
            + f'"center": {_fmt(p.center)}, "height": {_fmt(p.height)}, '
            + f'"fwhm": {_fmt(p.width)}, '
            + f'"band": [{_fmt(p.band[0])}, {_fmt(p.band[1])}]'
            + "}"
        )
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def peaks_to_csv(peaks) -> str:
    lines = ["center,height,fwhm,band_lo,band_hi"]
    for p in peaks:
        lines.append(",".join(_fmt(v) for v in (p.center, p.height, p.width, *p.band)))
    return "\n".join(lines) + "\n"


def write_peaks_json(peaks, path: str) -> None:
    atomic_write_text(path, peaks_to_json(peaks))
