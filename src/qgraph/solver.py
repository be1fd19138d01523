"""Directed-bond scattering solver: the ground truth for every closed form.

Each internal edge e contributes two directed bonds 2e (u to v) and 2e+1
(v to u).  A wave arriving at a vertex along one bond scatters into the
bonds leaving that vertex with the amplitudes of the vertex matrix, and a
bond of length n picks up the propagation phase z^n, z = e^{i kl}.  Writing
a_b for the amplitude arriving at the end of bond b and injecting a unit
wave from the entrance lead, the stationary state solves

    a = D(z) S a + D(z) b_in,

with S the bond-to-bond vertex amplitudes and D(z) the diagonal of phases;
transmission and reflection are linear readouts of a plus the direct
lead-to-lead vertex amplitude.  The linear system is tiny (2E unknowns), so
everything uses dense LAPACK solves, batched over wavenumber grids.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .closedforms import RationalAmplitude
from .graphs import QuantumGraph, subdivide_integral, validate_graph

# A solve at real kl off |t|^2 + |r|^2 = 1 by more than this is singular: the
# matrix is numerically rank deficient at a perfectly trapped mode.
SINGULAR_UNITARITY_TOL = 1e-6
# Half-width of the two-sided limit that scattering_limit averages.
LIMIT_OFFSET = 1e-9

# Largest phase |kl| * length accepted: beyond it the float64 spacing of the
# phase exceeds 0.1 rad, so amplitudes would keep no correct digits.
MAX_PHASE = 1e15

# Element budget per LAPACK batch; keeps peak memory modest on fine sweeps.
_BATCH_ELEMENTS = 1 << 21


class ShellSingularityError(ArithmeticError):
    """The bond system was numerically singular at a real wavenumber."""

    def __init__(self, kl):
        super().__init__(
            f"bond system is singular on the energy shell at kl={kl!r}; "
            "re-evaluate at kl +- 1e-9 or use scattering_limit"
        )
        self.kl = kl


@dataclass(frozen=True, eq=False)
class BondSystem:
    """Assembled bond-scattering data for a two-lead graph.

    ``smatrix[b2, b1]`` is the amplitude from bond b1 arriving at a vertex
    into bond b2 leaving it; ``lengths`` holds per-bond phase exponents.
    ``inj`` injects the unit entrance wave, ``out_t``/``out_r`` read out the
    exit and entrance lead channels, and the ``direct_*`` terms cover
    lead-to-lead scattering at a shared vertex.
    """

    smatrix: np.ndarray
    lengths: np.ndarray
    inj: np.ndarray
    out_t: np.ndarray
    out_r: np.ndarray
    direct_t: complex
    direct_r: complex
    bond_ends: tuple

    @property
    def bond_count(self) -> int:
        return self.smatrix.shape[0]


@dataclass(frozen=True)
class ScatteringResult:
    """Two-port amplitudes at one wavenumber."""

    kl: complex
    t_global: complex
    r_global: complex

    @property
    def t2(self) -> float:
        return abs(self.t_global) ** 2

    @property
    def r2(self) -> float:
        return abs(self.r_global) ** 2


def assemble_bond_system(graph: QuantumGraph) -> BondSystem:
    """Build S, the injection vector, and the readout rows for a valid graph."""
    return _assemble_cached(graph)


@lru_cache(maxsize=128)
def _assemble_cached(graph: QuantumGraph) -> BondSystem:
    # Graphs are immutable and hash by identity, so each is validated once;
    # an invalid one raises on every call, since exceptions are not cached.
    report = validate_graph(graph)
    if not report.ok:
        raise ValueError("cannot assemble an invalid graph:\n" + str(report))
    if len(graph.leads) != 2:
        raise ValueError(f"scattering needs exactly 2 leads, got {len(graph.leads)}")

    # Ports at a vertex: incident edge ends in (edge index, end) order, then
    # leads in channel order.  This fixes every matrix row/column.  Bond
    # 2e+d departs from end d of edge e and arrives at end 1-d, so port
    # (e, d) emits bond 2e+d and absorbs bond 2e+1-d.
    emits = {vid: [] for vid in graph.vertex_ids}
    for ei, e in enumerate(graph.edges):
        emits[e.u].append(2 * ei)
        emits[e.v].append(2 * ei + 1)

    nbonds = 2 * len(graph.edges)
    smatrix = np.zeros((nbonds, nbonds), dtype=complex)
    inj = np.zeros(nbonds, dtype=complex)
    out_t = np.zeros(nbonds, dtype=complex)
    out_r = np.zeros(nbonds, dtype=complex)
    v_in, v_out = graph.leads
    for vid, emitted in emits.items():
        m = graph.vertex_matrix(vid)
        absorbed = [b ^ 1 for b in emitted]
        k = len(emitted)
        smatrix[np.ix_(emitted, absorbed)] = m[:k, :k]
        # A lead's column feeds the bonds leaving its vertex; its row reads
        # out the bonds arriving there.
        if vid == v_in:
            inj[emitted] = m[:k, k]
            out_r[absorbed] = m[k, :k]
            direct_r = complex(m[k, k])
            direct_t = complex(m[k + 1, k]) if v_out == v_in else 0.0
        if vid == v_out:
            out_t[absorbed] = m[k + (v_out == v_in), :k]

    lengths = np.repeat([e.length for e in graph.edges], 2).astype(float)
    bond_ends = tuple(
        (e.u, e.v) if d == 0 else (e.v, e.u) for e in graph.edges for d in (0, 1)
    )
    for arr in (smatrix, lengths, inj, out_t, out_r):
        arr.setflags(write=False)
    return BondSystem(
        smatrix=smatrix, lengths=lengths, inj=inj,
        out_t=out_t, out_r=out_r,
        direct_t=direct_t, direct_r=direct_r,
        bond_ends=bond_ends,
    )


def _solve_bonds(system: BondSystem, kl: np.ndarray) -> np.ndarray:
    """Arriving bond amplitudes for a 1-D array of (possibly complex) kl."""
    nb = system.bond_count
    phases = np.exp(1j * np.multiply.outer(kl, system.lengths))
    m = np.eye(nb, dtype=complex)[None, :, :] - phases[:, :, None] * system.smatrix
    rhs = phases * system.inj
    return np.linalg.solve(m, rhs[..., None])[..., 0]


def _check_phase(kl: np.ndarray, lengths: np.ndarray) -> None:
    """Refuse wavenumbers whose phases kl * length keep no correct digits."""
    # Python floats: a product past the float range is inf, without a warning.
    phase = float(abs(kl).max(initial=0.0)) * float(lengths.max(initial=0.0))
    if phase > MAX_PHASE:
        raise ValueError(
            f"|kl| * (largest length) = {phase:.3g} exceeds {MAX_PHASE:.0e}; "
            "the phases would keep no correct digits"
        )


def _usable_cores() -> int:
    """Cores this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def solve_many(graph: QuantumGraph, kl: np.ndarray):
    """Vectorized (t, r) over an array of wavenumbers; no singularity policy.

    Points where the system is near-singular come back non-finite or far from
    unitary; ``_repair`` gives them the limit policy.  The grid is solved in
    batches of bounded memory; a grid of several batches is spread over the
    usable cores, one batch per task writing its own slice of the output.  A
    point's (t, r) is bit for bit the same in any batch and on any core
    count.  A phase |kl| * length above MAX_PHASE raises ValueError.
    """
    system = assemble_bond_system(graph)
    kl = np.asarray(kl)
    flat = np.atleast_1d(kl).astype(complex)
    _check_phase(flat, system.lengths)
    nb = system.bond_count
    step = max(1, _BATCH_ELEMENTS // max(1, nb * nb))
    t = np.empty(flat.shape, dtype=complex)
    r = np.empty(flat.shape, dtype=complex)

    def solve_batch(lo):
        a = _solve_bonds(system, flat[lo:lo + step])
        # Row-wise: a matrix product's BLAS kernel, and last bit, vary with rows.
        t[lo:lo + step] = np.vecdot(system.out_t.conj(), a) + system.direct_t
        r[lo:lo + step] = np.vecdot(system.out_r.conj(), a) + system.direct_r

    starts = range(0, flat.size, step)
    workers = min(len(starts), _usable_cores())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve_batch, starts))
    else:
        for lo in starts:
            solve_batch(lo)
    if kl.ndim == 0:
        return t[0], r[0]
    return t, r


def scattering_matrix(graph: QuantumGraph, kl) -> ScatteringResult:
    """Two-port amplitudes at one wavenumber, real or complex.

    kl must be finite and, if real, nonzero; complex kl must keep
    |e^{i kl}| <= 1 + 1e-9 (no exponential growth along the edges).  A
    numerically singular on-shell solve raises ShellSingularityError so the
    caller can apply the two-sided limit policy.
    """
    kl = complex(kl)
    if not np.isfinite(kl):
        raise ValueError(f"kl must be finite, got {kl!r}")
    if kl.imag == 0.0:
        if kl.real == 0.0:
            raise ValueError("kl must be nonzero")
    elif kl.imag < -1e-9:
        raise ValueError(
            f"complex kl={kl!r} makes |e^(i kl)| = {np.exp(-kl.imag):.6g} > 1"
        )

    t, r = solve_many(graph, np.array([kl]))
    if _singular(kl, t, r)[0]:
        raise ShellSingularityError(kl)
    out_kl = kl.real if kl.imag == 0.0 else kl
    return ScatteringResult(kl=out_kl, t_global=complex(t[0]), r_global=complex(r[0]))


def _singular(kl, t, r) -> np.ndarray:
    """Mask of singular solves: non-finite, or past SINGULAR_UNITARITY_TOL at real kl."""
    defect = np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)
    return ~(np.isfinite(t) & np.isfinite(r)) | (np.isreal(kl) & (defect > SINGULAR_UNITARITY_TOL))


def scattering_limit(graph: QuantumGraph, kl: float) -> ScatteringResult:
    """Limit policy at an on-shell singular point.

    Averages evaluations at kl +- 1e-9; the odd error terms cancel, so a
    removable singularity is recovered with relative error of order 1e-18.
    """
    lo = scattering_matrix(graph, kl - LIMIT_OFFSET)
    hi = scattering_matrix(graph, kl + LIMIT_OFFSET)
    return ScatteringResult(
        kl=kl,
        t_global=0.5 * (lo.t_global + hi.t_global),
        r_global=0.5 * (lo.r_global + hi.r_global),
    )


def scattering_or_limit(graph: QuantumGraph, kl: float) -> ScatteringResult:
    try:
        return scattering_matrix(graph, kl)
    except ShellSingularityError:
        return scattering_limit(graph, kl)


def _repair(graph: QuantumGraph, kl: np.ndarray, t: np.ndarray, r: np.ndarray):
    """Replace the singular solves of (t, r) at real kl, in place, by scattering_limit."""
    for i in np.nonzero(_singular(kl, t, r))[0]:
        res = scattering_limit(graph, float(kl[i]))
        t[i], r[i] = res.t_global, res.r_global
    return t, r


def green_function_value(graph: QuantumGraph, x_i: float, x_f: float, kl: float) -> complex:
    """Lead-to-lead Green's function T(k)/(ik) e^{ik(x_i + x_f)}.

    x_i and x_f are distances along the entrance and exit leads from their
    attachment vertices; units are natural (hbar = m = base length = 1), so
    k equals kl.  kl = 0 is rejected because of the 1/k prefactor.
    """
    if kl == 0:
        raise ValueError("kl must be nonzero (prefactor pole at k = 0)")
    if x_i < 0 or x_f < 0:
        raise ValueError("lead coordinates must be non-negative")
    res = scattering_or_limit(graph, kl)
    return res.t_global / (1j * kl) * np.exp(1j * kl * (x_i + x_f))


# ---------------------------------------------------------------------------
# Rational amplitude extraction.
#
# On unit bonds D(z) = z I, so t(z) = direct_t + z out_t (I - z S)^{-1} inj,
# and likewise r(z).  Trapped modes, eigenvectors of S on the unit circle that
# no lead sees or feeds, cancel from both amplitudes but would leave roots that
# numerator and denominator share only approximately.  S restricted to the
# modes that couple to a lead keeps the amplitudes exact, and its
# det(I - z S) is the shared denominator without those roots.  Sampling t*det
# and det on a circle |z| = rho < 1 and taking an FFT then recovers the
# polynomial coefficients to near machine precision.
# ---------------------------------------------------------------------------

_EXTRACT_RHO = 0.95
# S^(2^40) has decayed on every mode with |lambda| < 1 - 1e-11; roundoff moves
# the trapped eigenvalues of its Gram matrix by less than 1e-4.
_COUPLING_SQUARINGS = 40


def _coupled_basis(smatrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the bond modes that couple to a lead.

    Unitary vertices give the lead rows C of the bond map C^H C = I - S^H S,
    so lim (S^k)^H S^k is the orthogonal projector onto the trapped modes
    (the observability Gramian is the identity minus it).  Its eigenvalues
    are 0 or 1, which makes the rank test a split at 1/2.
    """
    power = smatrix
    for _ in range(_COUPLING_SQUARINGS):
        power = power @ power
    trapped, vecs = np.linalg.eigh(power.conj().T @ power)
    return vecs[:, trapped < 0.5]


def _sample_count(order: int) -> int:
    """FFT samples the extractor takes for a reduced system of this order."""
    # The smallest power of two >= 8 (order + 2), exact for any integer order.
    return 1 << max(3, (8 * (order + 2) - 1).bit_length())


@lru_cache(maxsize=128)
def _extract_channels(graph: QuantumGraph) -> tuple:
    """Lowest-terms (transmission, reflection) forms of an integral graph.

    One reduction and one batch of det/solve samples serve both channels,
    which share the denominator.  Cached per graph object, like the
    assembled bond system.
    """
    system = assemble_bond_system(subdivide_integral(graph))
    basis = _coupled_basis(system.smatrix)
    smat = basis.conj().T @ system.smatrix @ basis
    inj = basis.conj().T @ system.inj
    order = smat.shape[0]

    n = _sample_count(order)
    rho = _EXTRACT_RHO
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    z = rho * np.exp(1j * theta)

    m = np.eye(order, dtype=complex)[None] - z[:, None, None] * smat
    dets = np.linalg.det(m)
    a = np.linalg.solve(m, (z[:, None] * inj)[..., None])[..., 0]

    def poly_coeffs(samples, degree):
        raw = np.fft.fft(samples)[: degree + 1]
        k = np.arange(degree + 1)
        # Undo the half-sample rotation and the sampling radius.
        return raw * np.exp(-1j * np.pi * k / n) / n * rho ** (-k.astype(float))

    raw_den = poly_coeffs(dets, order)
    den = raw_den / raw_den[0]
    # Trailing coefficients below the sampling noise floor are artifacts.
    keep = np.abs(den) > 1e-11 * np.max(np.abs(den))
    den = den[: keep.nonzero()[0].max() + 1]

    amps = []
    for out, direct in ((system.out_t, system.direct_t), (system.out_r, system.direct_r)):
        vals = a @ (out @ basis) + direct
        num = poly_coeffs(vals * dets, order) / raw_den[0]
        keepn = np.abs(num) > 1e-11 * max(float(np.max(np.abs(num))), 1e-30)
        num = num[: keepn.nonzero()[0].max() + 1] if keepn.any() else np.zeros(1, complex)
        amps.append(RationalAmplitude(num, den))
    return tuple(amps)


def extract_rational_amplitude(graph: QuantumGraph, channel: str = "transmission") -> RationalAmplitude:
    """Exact rational form of the transmission (or reflection) amplitude.

    Requires integral edge lengths.  The two channels share one denominator,
    normalized to den(0) = 1, that keeps only the modes the leads couple to,
    so it has no roots on the unit circle.  The form carries the solver's
    (physical) sign convention, so its Taylor coefficients are the walk
    amplitudes directly.
    """
    if channel not in ("transmission", "reflection"):
        raise ValueError(f"channel must be transmission or reflection, got {channel!r}")
    t_amp, r_amp = _extract_channels(graph)
    return t_amp if channel == "transmission" else r_amp


# ---------------------------------------------------------------------------
# Sweep routing.  On an integer-length graph a sweep can evaluate the
# lowest-terms forms by Horner's rule instead of factoring the nb x nb bond
# matrix at every point.  Extraction factors two matrices of order at most
# k = 2 * (total length), the bond count after subdivision, per FFT sample,
# so the rational route is taken once the grid's dense work is at least
# that large; short sweeps and long-edge graphs stay on the solver.
# ---------------------------------------------------------------------------


def _sweep_amplitudes(graph: QuantumGraph, grid: np.ndarray):
    """Repaired (t, r) on a real grid, by the rational forms or by the dense solver."""
    system = assemble_bond_system(graph)
    nb = system.bond_count
    # Exact integers only: the forms subdivide rounded lengths, which would
    # shift the phases of a length that is integral only to a tolerance.
    if all(float(e.length).is_integer() for e in graph.edges):
        k = 2 * sum(int(e.length) for e in graph.edges)
        if len(grid) * nb**3 >= 2 * _sample_count(k) * k**3:
            _check_phase(grid, system.lengths)
            t_amp, r_amp = _extract_channels(graph)
            z = np.exp(1j * grid)
            den = npoly.polyval(z, t_amp.den)
            t, r = npoly.polyval(z, t_amp.num) / den, npoly.polyval(z, r_amp.num) / den
            bad = _singular(grid, t, r)
            if bad.any():
                t[bad], r[bad] = _repair(graph, grid[bad], *solve_many(graph, grid[bad]))
            return t, r
    return _repair(graph, grid, *solve_many(graph, grid))
