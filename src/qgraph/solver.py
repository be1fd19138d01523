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
from functools import wraps

import numpy as np

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

# A rational-route sweep point whose Horner rounding bound exceeds this is re-solved.
HORNER_TOL = 1e-9
# Grid points per block of a rational-route sweep.  The (3, block) Horner
# accumulator, 384 KiB at 8192, and each block's phases stay in cache.  On
# a shared 2-core Xeon (2 MiB L2 a core, numpy 2.4) the three reference
# chains' 62 633-point evaluations took 35 ms by whole-grid polyval, and
# 28, 17, 21 and 23 ms in blocks of 4096, 8192, 16384 and 32768 points.
_HORNER_BLOCK = 8192

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
    lead-to-lead scattering at a shared vertex.  All are real (float64)
    when every vertex matrix is, as on NK graphs, and complex otherwise.
    """

    smatrix: np.ndarray
    lengths: np.ndarray
    inj: np.ndarray
    out_t: np.ndarray
    out_r: np.ndarray
    direct_t: complex | float
    direct_r: complex | float

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


def _per_graph(fn):
    """Memoize fn(graph) in the graph, for its lifetime; exceptions are not kept.

    Unlocked: threads racing on one new graph at worst compute it twice.
    """
    @wraps(fn)
    def memoized(graph: QuantumGraph):
        if fn not in graph._memo:
            graph._memo[fn] = fn(graph)
        return graph._memo[fn]
    return memoized


@_per_graph
def assemble_bond_system(graph: QuantumGraph) -> BondSystem:
    """Validate, then lay the vertex matrices out on the directed bonds.

    Ports at a vertex are its incident edge ends in (edge index, end) order,
    then its leads in channel order; this fixes every matrix row and column.
    Bond 2e+d departs from end d of edge e and arrives at end 1-d, so port
    (e, d) emits bond 2e+d and absorbs bond 2e+1-d.  Vertices that share a
    matrix and a bond-port count (every lead-free NK vertex of degree d
    shares nk_vertex_matrix(d)) are written by one scatter into smatrix;
    the lead rows and columns then come from the two lead vertices.
    """
    report = validate_graph(graph)
    if not report.ok:
        raise ValueError("cannot assemble an invalid graph:\n" + str(report))
    if len(graph.leads) != 2:
        raise ValueError(f"scattering needs exactly 2 leads, got {len(graph.leads)}")

    emits = {vid: [] for vid in graph.vertex_ids}
    for ei, e in enumerate(graph.edges):
        emits[e.u].append(2 * ei)
        emits[e.v].append(2 * ei + 1)

    # (NK degree or custom matrix, bond ports) -> (matrix, emitted bonds per vertex)
    classes = {}
    for vid, bc in zip(graph.vertex_ids, graph.boundary):
        emitted = emits[vid]
        key = (graph.degree(vid) if isinstance(bc, str) else id(bc), len(emitted))
        if key not in classes:
            classes[key] = (graph.vertex_matrix(vid), [])
        classes[key][1].append(emitted)

    # Real vertex matrices (every NK vertex) give a real system, and its
    # dtype keeps the reduction, the forms and the walks in real arithmetic.
    real = not any(m.imag.any() for m, _ in classes.values())
    dtype, entries = (float, np.real) if real else (complex, np.asarray)

    nbonds = 2 * len(graph.edges)
    smatrix = np.zeros((nbonds, nbonds), dtype=dtype)
    for (_, k), (m, emitted) in classes.items():
        if k:
            rows = np.array(emitted)
            smatrix[rows[:, :, None], rows[:, None, :] ^ 1] = entries(m[:k, :k])

    # A lead's column feeds the bonds leaving its vertex; its row reads out
    # the bonds arriving there.
    inj = np.zeros(nbonds, dtype=dtype)
    out_t = np.zeros(nbonds, dtype=dtype)
    out_r = np.zeros(nbonds, dtype=dtype)
    v_in, v_out = graph.leads
    shared = v_in == v_out
    m, emitted = entries(graph.vertex_matrix(v_in)), np.array(emits[v_in], dtype=int)
    k = len(emitted)
    inj[emitted] = m[:k, k]
    out_r[emitted ^ 1] = m[k, :k]
    direct_r = m[k, k].item()
    direct_t = m[k + 1, k].item() if shared else 0.0
    m, emitted = entries(graph.vertex_matrix(v_out)), np.array(emits[v_out], dtype=int)
    k = len(emitted)
    out_t[emitted ^ 1] = m[k + shared, :k]

    lengths = np.repeat([e.length for e in graph.edges], 2).astype(float)
    for arr in (smatrix, lengths, inj, out_t, out_r):
        arr.setflags(write=False)
    return BondSystem(
        smatrix=smatrix, lengths=lengths, inj=inj,
        out_t=out_t, out_r=out_r,
        direct_t=direct_t, direct_r=direct_r,
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
    with np.errstate(over="ignore"):  # |t|^2 past the float range is singular too
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
# det(I - z S) is the shared denominator without those roots.
#
# One unitary similarity, O(k^3) once, brings the reduced map of order k to
# upper Hessenberg form H with the injection along e_1.  Its structure gives
# the coefficients exactly (the Hessenberg determinant expansion; Wilkinson,
# The Algebraic Eigenvalue Problem, 1965).  Expanding the trailing minors
# q_j = det (I - z H)[j:, j:] along their first row,
#
#     q_j = q_{j+1} - sum_{i >= j} h_ji (prod_{l=j+1..i} h_{l,l-1}) z^(i-j+1) q_{i+1},
#
# with q_k = 1, and the first column of adj(I - z H) is
# z^j (prod_{l<=j} h_{l,l-1}) q_{j+1}.  So den = q_0, and both readouts
# z rows adj(I - z H) e_1 are one product with the table of z^(j+1) q_{j+1}.
# den(0) = 1 and num(0) = direct hold exactly.  Work is O(k^3), memory O(k^2).
# ---------------------------------------------------------------------------

# S^(2^40) has decayed on every mode with |lambda| < 1 - 1e-11; roundoff moves
# the trapped eigenvalues of its Gram matrix by less than 1e-4.
_COUPLING_SQUARINGS = 40
# Trailing coefficients below this fraction of the largest are roundoff.
_TRIM_RTOL = 1e-11


def _coupled_basis(smatrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the bond modes that couple to a lead.

    Unitary vertices give the lead rows C of the bond map C^H C = I - S^H S,
    so lim (S^k)^H S^k is the orthogonal projector onto the trapped modes
    (the observability Gramian is the identity minus it).  Its eigenvalues
    are 0 or 1, which makes the rank test a split at 1/2.  A Householder
    pass on the full map from inj cannot replace it: rounding leaks that
    Krylov space into the trapped modes, so on c3-c3-c3-c3-c3-c3-c3-c3 the
    true cut's subdiagonal is only 1.0e-4, and even that cut leaves h off
    by 3.6e-6.
    """
    power = smatrix
    for _ in range(_COUPLING_SQUARINGS):
        power = power @ power
    trapped, vecs = np.linalg.eigh(power.conj().T @ power)
    return vecs[:, trapped < 0.5]


def _hessenberg(smat: np.ndarray, inj: np.ndarray, outs: np.ndarray):
    """(H, rows): H = Q^H smat Q upper Hessenberg, Q^H inj = beta e_1, rows = beta outs Q.

    Householder steps on the augmented matrix [[inj | smat], [0 | outs]]:
    step j zeroes column j below row j, by a reflector applied from the left
    to the k state rows and from the right to the columns of smat and outs,
    so it is a similarity that carries the readout rows along.  Column 0 is
    inj, column j > 0 is column j - 1 of H, and Q is never formed.  The
    reflector's sign x_0/|x_0| is +-1 on real input, which stays real.
    """
    k = len(inj)
    g = np.block([[inj[:, None], smat], [np.zeros((len(outs), 1)), outs]])
    for j in range(k - 1):
        x = g[j:k, j]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
        v /= np.linalg.norm(v)
        g[j:k, j:] -= np.outer(v, 2.0 * (v.conj() @ g[j:k, j:]))
        g[:, j + 1:] -= np.outer(2.0 * (g[:, j + 1:] @ v), v.conj())
        g[j + 1:k, j] = 0.0
    beta = g[0, 0] if k else 0.0
    return g[:k, 1:], beta * g[k:, 1:]


@_per_graph
def _reduce(graph: QuantumGraph) -> tuple:
    """(system, H, rows): the unit-bond map of an integral graph, reduced.

    ``system`` is the subdivided graph's bond system, H its map restricted
    to the modes that couple to a lead, in Hessenberg form with the
    injection along e_1, and ``rows`` the (transmission, reflection)
    readouts in that basis, scaled by the injection's norm: for m >= 1 the
    walk amplitude is c_m = rows H^(m-1) e_1.  Kept on the graph object,
    so extraction and the exact walk statistics share one reduction.
    """
    system = assemble_bond_system(subdivide_integral(graph))
    basis = _coupled_basis(system.smatrix)
    h, rows = _hessenberg(basis.conj().T @ system.smatrix @ basis,
                          basis.conj().T @ system.inj,
                          np.array([system.out_t, system.out_r]) @ basis)
    for arr in (h, rows):
        arr.setflags(write=False)
    return system, h, rows


def _trim(poly: np.ndarray) -> np.ndarray:
    """poly without its trailing coefficients below _TRIM_RTOL of the largest."""
    keep = np.nonzero(np.abs(poly) > _TRIM_RTOL * np.max(np.abs(poly)))[0]
    return poly[: keep[-1] + 1] if len(keep) else poly[:1]


def _extract_channels(graph: QuantumGraph) -> tuple:
    """Lowest-terms (transmission, reflection) forms of an integral graph.

    ``minors[j]`` holds the coefficients of z^j q_j, so row j is
    minors[j + 1] shifted down one power, minus the weighted sum of the rows
    below it; one table serves both channels, which share the denominator.
    Not cached: it reruns only the O(k^3) recurrence on the cached reduction.
    """
    system, h, rows = _reduce(graph)
    k = h.shape[0]
    sub = np.diagonal(h, -1)
    minors = np.zeros((k + 1, k + 1), dtype=h.dtype)
    minors[k, k] = 1.0
    for j in range(k - 1, -1, -1):
        weights = h[j, j:] * np.cumprod(np.r_[1.0, sub[j:]])
        minors[j, :-1] = minors[j + 1, 1:]
        minors[j] -= weights @ minors[j + 1:]
    # rows_i prod_{l<=i} h_{l,l-1} weighs z^(i+1) q_{i+1} in z rows adj e_1.
    nums = (np.outer((system.direct_t, system.direct_r), minors[0])
            + (rows * np.cumprod(np.r_[1.0, sub])) @ minors[1:])
    den = _trim(minors[0].copy())  # a form a caller keeps must not pin the table
    return tuple(RationalAmplitude(_trim(num), den) for num in nums)


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
# lowest-terms forms by Horner's rule instead of solving the nb x nb bond
# system at every point.  The rational route is taken once the grid's dense
# solves would cost more than the extraction, at order k = 2 * (total
# length), the bond count after subdivision; short sweeps and long-edge
# graphs stay on the solver.  The costs, in microseconds, were fitted within
# a factor 2 for nb, k from 6 to 398 on a 2-core x86-64 machine (numpy 2.4,
# single-threaded OpenBLAS, solve_many's batches spread over both cores): a
# dense solve takes 1.3 + 0.025 nb^2 + 5.6e-6 nb^3 per point, and an
# extraction 190 + 38 k + c k^3, almost all of it the reduction, with
# c = 0.0034 on a real bond map (within 0.90-1.11) and 0.0105 on a complex
# one (within 0.88-1.22).
# ---------------------------------------------------------------------------


def _rational_pays(points: int, nb: int, k: int, real: bool) -> bool:
    """Whether extracting order-k forms costs less than points dense nb x nb solves."""
    # Past k = 10^100 extraction never pays; the clamp keeps k^3 a finite float.
    k = min(k, 10**100)
    solve_us = 1.3 + 0.025 * nb**2 + 5.6e-6 * nb**3
    extract_us = 190.0 + 38.0 * k + (0.0034 if real else 0.0105) * k**3
    return points * solve_us >= extract_us


def _horner_sweep(t_amp: RationalAmplitude, r_amp: RationalAmplitude, grid: np.ndarray):
    """(t, r, bad): both forms on a real grid, and the points to re-solve.

    The two numerators and the shared denominator are padded with
    high-order zeros to one length n and run through Horner's rule as the
    rows of one accumulator, one block of _HORNER_BLOCK points at a time;
    the phases, t, r and the re-solve mask of a block are computed while it
    is still in cache.  Per point the arithmetic is that of three
    ``polyval`` calls in the same order (acc * z, then + c, from a zero
    accumulator), so any block size gives the same bits.  A point is bad
    when its solve looks singular or its Horner rounding bound exceeds
    HORNER_TOL.
    """
    forms = (t_amp.num, r_amp.num, t_amp.den)
    n = max(len(c) for c in forms)
    coef = np.zeros((n, 3, 1), dtype=complex)
    for row, c in enumerate(forms):
        coef[: len(c), row, 0] = c
    # On |z| = 1 Horner's rule errs by at most 2 n eps sum |p_k| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, 5.1), so
    # num/den by 2 n eps (sum |num_k| + |num/den| sum |den_k|) / |den|.
    eps_n = 2.0 * n * np.finfo(float).eps
    t_sum, r_sum, den_sum = (np.abs(c).sum() for c in forms)
    t = np.empty(len(grid), dtype=complex)
    r = np.empty(len(grid), dtype=complex)
    bad = np.empty(len(grid), dtype=bool)
    acc = np.empty((3, min(len(grid), _HORNER_BLOCK)), dtype=complex)
    for lo in range(0, len(grid), _HORNER_BLOCK):
        kl = grid[lo:lo + _HORNER_BLOCK]
        hi = lo + len(kl)
        z = np.exp(1j * kl)
        block = acc[:, : len(kl)]
        block.fill(0.0)
        for c in coef[::-1]:
            block *= z
            block += c
        t_b, r_b = t[lo:hi], r[lo:hi]
        np.divide(block[0], block[2], out=t_b)
        np.divide(block[1], block[2], out=r_b)
        scale = eps_n / np.abs(block[2])
        bad_b = _singular(kl, t_b, r_b)
        for num_sum, value in ((t_sum, t_b), (r_sum, r_b)):
            bad_b |= ~(scale * (num_sum + np.abs(value) * den_sum) <= HORNER_TOL)  # a NaN fails too
        bad[lo:hi] = bad_b
    return t, r, bad


def _sweep_amplitudes(graph: QuantumGraph, grid: np.ndarray):
    """Repaired (t, r) on a real grid, by the rational forms or by the dense solver.

    On the rational route ``_horner_sweep`` evaluates the lowest-terms forms
    in one blocked pass; the points it marks (singular, or past HORNER_TOL)
    are solved by the dense solver and given its limit policy.
    """
    system = assemble_bond_system(graph)
    # Exact integers only: the forms subdivide rounded lengths, which would
    # shift the phases of a length that is integral only to a tolerance.
    if all(float(e.length).is_integer() for e in graph.edges):
        k = 2 * sum(int(e.length) for e in graph.edges)
        if _rational_pays(len(grid), system.bond_count, k, not np.iscomplexobj(system.smatrix)):
            _check_phase(grid, system.lengths)
            t, r, bad = _horner_sweep(*_extract_channels(graph), grid)
            if bad.any():
                t[bad], r[bad] = _repair(graph, grid[bad], *solve_many(graph, grid[bad]))
            return t, r
    return _repair(graph, grid, *solve_many(graph, grid))
