"""Quantum-walk statistics from the transmission generating function.

With unit-length edges the transmission amplitude t(z), z = e^{ikl}, is a
generating function: the coefficient c_m of z^m sums the amplitudes of every
lead-to-lead path of m steps.  P(m) = |c_m|^2 is the probability of exiting
in exactly m steps, p_out = sum P(m) the total exit probability through the
exit lead, and h = sum m P(m) / p_out the conditional hitting time.

Coefficients come from two independent routes that cross-check each other:
a linear recurrence on the rational amplitude, one coefficient per step,
and direct power iteration of the bond map.  Both return coefficients only.
The statistics come from three routes: walk_stats_exact sums the series
exactly through the reduced bond map's Gramians, walk_stats_to_tolerance
truncates the series under one geometric tail rule set by the smallest pole
radius, and walk_stats_by_quadrature integrates on the unit circle with at
least as many nodes as that radius's decay needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedforms import RationalAmplitude, UnitCirclePoleError
from .graphs import QuantumGraph, subdivide_integral
from .solver import _reduce, assemble_bond_system

# A pole radius at most this far outside the unit circle is refused: flux
# conservation puts every pole of a lowest-terms form strictly outside, and
# a walk series whose pole sits on the circle does not decay.
MARGINAL_MODE_CUTOFF = 1e-9

# Highest truncation order walk_stats_to_tolerance expands before refusing.
ORDER_CAP = 32768

# coefficients_via_power_iteration holds at most KRYLOV_BLOCK Krylov
# vectors S^m inj at a time, which bounds its memory: 256 rows of c99's
# 198 bonds are 0.4 MB, where all 20000 of a 20000-order walk would be 31.7 MB.
KRYLOV_BLOCK = 256

# walk_stats_exact stops squaring once ||H^N||_F^2 falls below
# GRAMIAN_STOP, and refuses after GRAMIAN_SQUARINGS squarings.
GRAMIAN_STOP = 1e-17
GRAMIAN_SQUARINGS = 64
# walk_stats_exact charges rounding _GRAMIAN_ROUNDING units on h, a unit
# being eps (||V||_F + (h - 1) ||W||_F) / p_out.  A rounding-level change of
# H (Arnoldi instead of Householder) moves h by up to 11.6 units (c99-c99).
# On c3..c99 and every chain of 2-4 cycles of sizes 3-6, a unit is at most
# 4.2e-10 (c5-c5-c6-c6), and against extended-precision power iteration h
# is off by up to 23.8 units in real arithmetic (c3-c6-c5) and 27.4 in
# complex (c4-c3-c6-c4, the same bond map typed complex); the two differ by
# up to 30.2 units, there.  The charge is an estimate, not a bound.
_GRAMIAN_ROUNDING = 16.0

# The circle quadrature settles once its pole decay and its change per
# doubling are both below QUADRATURE_TOL, and stops doubling its node count
# at QUADRATURE_MAX_NODES.  It evaluates its n nodes in FFTs of
# m = min(n, max(QUADRATURE_CHUNK, 2^ceil(log2 L))) nodes, L the longest
# form's length.  The four per-chunk arrays of 2^10 complex values are 64 KiB:
# under glibc's 128 KiB mmap threshold, so they are reused from the heap
# instead of mapped and unmapped (and page-faulted) on every chunk, and they
# stay in L2.  A longer form gets chunks at least as long as itself, so the
# O(L) twist and fold per chunk never outgrows its FFT.  A real form skips
# the conjugate of each chunk.  c31 settles at 2^18 nodes with a 0.24 MiB
# traced peak, in about 9 ms on a shared 2-core Xeon.
QUADRATURE_TOL = 1e-8
QUADRATURE_MAX_NODES = 1 << 19
QUADRATURE_CHUNK = 1 << 10


class TruncationError(ArithmeticError):
    """The truncated series cannot certify the requested tolerance."""


def _check_weight(c: np.ndarray) -> None:
    """Refuse coefficients whose total weight sum |c_m|^2 exceeds 1 beyond roundoff or is NaN."""
    weight = float(np.sum(np.abs(c) ** 2))
    if not weight <= 1.0 + 1e-9:  # a NaN fails too
        raise ValueError(
            f"total weight {weight:.6f} exceeds 1 or is not a number; "
            "amplitude is not flux-conserving"
        )


@dataclass(frozen=True, eq=False)
class WalkSeries:
    """Walk coefficients c_0..c_M of a truncated series.

    Total weight sum |c_m|^2 above 1 (beyond roundoff) is rejected: these
    coefficients only make sense for flux-conserving amplitudes.
    """

    coefficients: np.ndarray
    order: int

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.order + 1,):
            raise ValueError(
                f"expected {self.order + 1} coefficients, got shape {c.shape}"
            )
        _check_weight(c)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True, eq=False)
class WalkStats:
    """Step distribution summary: P(m), exit probability, hitting time.

    ``p_of_m[m]`` is P(m); the array is empty when the statistics came from
    quadrature, which integrates the distribution without resolving it.
    """

    p_of_m: np.ndarray
    p_out: float
    hitting_time: float


def _check_tolerance(tolerance: float) -> None:
    if not (0 < tolerance < np.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")


def _walk_stats(p_out: float, moment: float, p_of_m=np.zeros(0)) -> WalkStats:
    """WalkStats from sum P(m) and sum m P(m) over m >= 1; refuses no weight and h < 1."""
    if p_out <= 0.0:
        raise ValueError("no transmitted weight at steps m >= 1; the amplitude is constant")
    h = moment / p_out
    if h < 1.0:
        raise ArithmeticError(f"hitting time {h} < 1; the walk statistics are inconsistent")
    return WalkStats(p_of_m=p_of_m, p_out=p_out, hitting_time=h)


def _recurrence(num: np.ndarray, den: np.ndarray, order: int, head=()) -> np.ndarray:
    """Taylor coefficients of num/den via c_m = (num_m - sum den_j c_{m-j})/den_0.

    An earlier expansion ``head`` is extended: its coefficients are copied.
    The coefficients are stored reversed behind deg den zeros, rc[order - m]
    = c_m, so that c_{m-1}, ..., c_{m-deg den} (zero before c_0) are the one
    forward slice that each step dots with den_1, ..., den_{deg den}.  They
    are real when num, den and head are.
    """
    degree = len(den) - 1
    d0, dot = den[0], den[1:].dot
    nums = np.asarray(num).tolist()
    rc = np.zeros(order + 1 + degree, dtype=np.result_type(num, den, np.asarray(head)))
    rc[order + 1 - len(head):order + 1] = head[::-1]
    for m in range(len(head), order + 1):
        s = order - m
        acc = nums[m] if m < len(nums) else 0.0
        rc[s] = (acc - dot(rc[s + 1:s + 1 + degree])) / d0
    return rc[order::-1].copy()


def _geometric_tail(coeffs: np.ndarray, rho, state: int) -> float:
    """Bound sum_{m>M} m |c_m|^2, M = len(coeffs) - 1, with |c_m| <= C rho^(-m).

    C is calibrated on the last ``state`` coefficients, which should hold at
    least the recurrence's whole state (the last deg den of them): a window
    shorter than a wave's return time can fall in a silent gap between
    arrivals.  No pole (rho None) means a polynomial, whose expansion past
    its degree leaves nothing.  Everything runs in log space to survive
    large rho^m.
    """
    if rho is None:
        return 0.0
    order = len(coeffs) - 1
    q = rho ** -2
    window = coeffs[max(0, order + 1 - state):]
    mags = np.abs(window)
    if not mags.any():
        return 0.0
    ms = np.arange(order + 1 - len(window), order + 1, dtype=float)
    mask = mags > 0
    log_c = np.max(np.log(mags[mask]) + ms[mask] * np.log(rho))
    log_tail = (
        2.0 * log_c
        + (order + 1) * np.log(q)
        + np.log((order + 1) - order * q)
        - 2.0 * np.log1p(-q)
    )
    return float(np.exp(log_tail))


def _pole_radius(amp: RationalAmplitude):
    """Smallest modulus among the denominator roots, or None.

    The form is in lowest terms, so every root is a pole; one on (or
    inside) the unit circle raises, as flux conservation rules it out.
    """
    den = np.trim_zeros(amp.den, "b")
    if len(den) <= 1:
        return None
    rho = float(np.min(np.abs(np.roots(den[::-1]))))
    if rho <= 1.0 + MARGINAL_MODE_CUTOFF:
        why = ("the walk series does not decay" if rho >= 1.0 - MARGINAL_MODE_CUTOFF
               else "it lies inside the unit circle, so the form is not "
               "flux-conserving or its roots lost precision")
        raise UnitCirclePoleError(f"pole at |z| = {rho:.12f}; {why}")
    return rho


def taylor_coefficients(amp: RationalAmplitude, max_order: int) -> WalkSeries:
    """Walk coefficients c_0..c_max_order of a rational amplitude.

    Runs the linear recurrence induced by num = den * sum c_m z^m; the
    coefficients keep the form's own sign.  No truncation error is
    estimated here: walk_stats_to_tolerance certifies the statistics.
    """
    if max_order < 0:
        raise ValueError("max_order must be non-negative")
    c = _recurrence(amp.num, amp.den, max_order)
    return WalkSeries(coefficients=c, order=max_order)


def coefficients_via_power_iteration(graph: QuantumGraph, max_order: int) -> WalkSeries:
    """Walk coefficients read off the bond map, one matrix product per step.

    Edges of integer length q are first subdivided into q unit edges through
    perfectly transparent degree-2 NK vertices, after which one application
    of the bond matrix advances the walk by exactly one step.  Independent
    of the rational-function machinery, which makes it the cross-check
    oracle for taylor_coefficients.

    Each step writes S^(m-1) inj into the next row of a block of at most
    KRYLOV_BLOCK rows, and each block is read out by one row-wise dot with
    out_t.  Each coefficient still costs the one matrix-vector product and
    the one dot product of a vector-at-a-time loop, bit for bit, and memory
    stays at KRYLOV_BLOCK * nb + max_order values for nb bonds.
    """
    if max_order < 0:
        raise ValueError("max_order must be non-negative")
    system = assemble_bond_system(subdivide_integral(graph))
    s, out = system.smatrix, system.out_t.conj()
    c = np.zeros(max_order + 1, dtype=s.dtype)
    c[0] = system.direct_t
    block = np.empty((min(max_order, KRYLOV_BLOCK), system.bond_count), dtype=s.dtype)
    for lo in range(1, max_order + 1, KRYLOV_BLOCK):
        rows = block[:max_order + 1 - lo]
        if lo == 1:
            rows[0] = system.inj
        else:
            s.dot(block[-1], out=rows[0])
        for prev, row in zip(rows, rows[1:]):
            s.dot(prev, out=row)
        # Row-wise, as solve_many reads its bonds: a gemv readout
        # (rows @ out_t) would sum in another order and move the last bits.
        c[lo:lo + len(rows)] = np.vecdot(out, rows)
    return WalkSeries(coefficients=c, order=max_order)


def walk_stats_to_tolerance(amp: RationalAmplitude, tolerance: float = 1e-8) -> WalkStats:
    """P(m), p_out and conditional hitting time from the certified series.

    Expands the series to orders 64 * 2^j, skipping those below
    len(num) + deg den and extending the previous expansion each time,
    until the geometric tail keeps the hitting-time truncation error below
    ``tolerance``; past order ORDER_CAP a TruncationError refuses.  Step
    counts start at m = 1 (c_0 is a zero-step process, nonzero only when
    both leads share a vertex, and is excluded from the sums).  A form with
    no weight at m >= 1 is a constant, whose hitting time is undefined: it
    raises ValueError.  The tolerance must lie in (0, inf).
    """
    _check_tolerance(tolerance)
    rho = _pole_radius(amp)
    degree = len(np.trim_zeros(amp.den, "b")) - 1
    order = 64
    while order < len(amp.num) + degree:
        order *= 2
    if order > ORDER_CAP:
        raise TruncationError(f"a form of this degree needs order {order} > {ORDER_CAP}")
    c = ()
    while True:
        c = _recurrence(amp.num, amp.den, order, c)
        _check_weight(c)
        p = np.abs(c) ** 2
        # order >= len(num) + deg den, so no weight now means none later.
        stats = _walk_stats(float(p[1:].sum()),
                            float(np.dot(np.arange(1, len(p), dtype=float), p[1:])), p)
        err = _geometric_tail(c, rho, max(32, degree)) * (1.0 + stats.hitting_time) / stats.p_out
        if err < tolerance:
            return stats
        if order >= ORDER_CAP:
            raise TruncationError(
                f"order {order} leaves hitting-time error ~{err:.3e} "
                f"(> {tolerance:.1e}); the series decays too slowly to certify"
            )
        order *= 2


def _gramian_stats(h: np.ndarray, row: np.ndarray, tolerance: float) -> WalkStats:
    """p_out and hitting time of c_m = row H^(m-1) e_1 by Smith's squared Stein iteration.

    W = sum_j (H^j)^H C H^j and V = sum_j j (H^j)^H C H^j, C = row^H row,
    give p_out = W_00 and sum_m m |c_m|^2 = (W + V)_00.  Each step doubles
    the number of terms N summed so far: W <- W + A^H W A,
    V <- V + A^H (V + N W) A, A <- A^2 = H^(2N); it stops once
    ||A||_F^2 < GRAMIAN_STOP.  The terms left out, j >= N, start from
    x = A e_1: unitary vertices make the transmission Gramian at most I,
    so the p_out remainder is at most ||x||^2, and the first-moment
    remainder x^H ((N + 1) W_inf + V_inf) x is bounded through ||V|| and N.
    Rounding in the sums adds an estimate, _GRAMIAN_ROUNDING eps (||V||_F +
    (h - 1) ||W||_F) / p_out, to the hitting-time error, so a mode close
    enough to the unit circle to make V large is refused rather than
    certified.
    """
    k = h.shape[0]
    a = h
    w = np.outer(row.conj(), row)
    v = np.zeros_like(w)
    n = 1
    squarings = 0
    while (a_norm2 := float(np.linalg.norm(a) ** 2)) >= GRAMIAN_STOP:
        if squarings == GRAMIAN_SQUARINGS:
            raise TruncationError(
                f"||H^{n}||_F^2 = {a_norm2:.3e} after {squarings} squarings; "
                "the walk decays too slowly to sum"
            )
        ah = a.conj().T
        v = v + ah @ (v + n * w) @ a
        w = w + ah @ w @ a
        a = a @ a
        n *= 2
        squarings += 1
    w00, v00 = (w[0, 0], v[0, 0]) if k else (0.0, 0.0)
    stats = _walk_stats(float(w00.real), float((w00 + v00).real))
    # V_inf = V + A^H (V_inf + N W_inf) A with ||W_inf|| <= 1.
    v_norm = float(np.linalg.norm(v))
    v_inf = (v_norm + n * a_norm2) / (1.0 - a_norm2)
    # p_out is off by at most |x|^2 and the first moment by |x|^2 (N + 1 + |V_inf|),
    # plus the rounding of the sums: h = 1 + V_00 / W_00 moves by
    # (dV_00 - (h - 1) dW_00) / p_out.
    x2 = float(np.linalg.norm(a[:, 0]) ** 2)
    rounding = _GRAMIAN_ROUNDING * np.finfo(float).eps * (
        v_norm + (stats.hitting_time - 1.0) * float(np.linalg.norm(w)))
    err = (x2 * (n + 1 + v_inf + stats.hitting_time) + rounding) / stats.p_out
    if not err < tolerance:
        raise TruncationError(
            f"after {squarings} squarings the hitting-time remainder and rounding "
            f"come to {err:.3e} (> {tolerance:.1e})"
        )
    return stats


def walk_stats_exact(graph: QuantumGraph, tolerance: float = 1e-8) -> WalkStats:
    """p_out and conditional hitting time summed exactly from the bond map.

    Works on the graph's reduced unit-bond map H (see solver._reduce),
    where c_m = c H^(m-1) e_1 for m >= 1, and sums both series through
    their Gramians (_gramian_stats) in log2 N matrix squarings instead of
    N coefficients.  Needs integer edge lengths.  Raises TruncationError
    when the remainder bound plus the rounding estimate stays above
    ``tolerance`` or after GRAMIAN_SQUARINGS squarings, and ValueError for
    a tolerance outside (0, inf) or a graph with no transmitted weight at
    m >= 1.  P(m) is not resolved, so p_of_m comes back empty.
    """
    _check_tolerance(tolerance)
    _, h, rows = _reduce(graph)
    return _gramian_stats(h, rows[0], tolerance)


def _on_rotated_nodes(polys, m: int, phase: float) -> np.ndarray:
    """Values of each coefficient row at z_l = e^{i phase} e^{2 pi i l/m}, l < m.

    z_l^k = e^{i phase k} e^{2 pi i lk/m}, so twisting coefficient k by
    e^{i phase k} leaves a length-m inverse DFT.  The second factor has
    period m in k, so a row longer than m folds onto k mod m and stays exact.
    """
    twist = np.exp(1j * phase * np.arange(max(len(c) for c in polys)))
    folded = np.zeros((len(polys), m), dtype=complex)
    for row, c in zip(folded, polys):
        twisted = c * twist[:len(c)]
        for lo in range(0, len(c), m):
            row[:len(c) - lo] += twisted[lo:lo + m]
    return np.fft.ifft(folded, norm="forward")


def _circle_means(polys, n: int, shift: int) -> np.ndarray:
    """Means of |T|^2 and Re[conj(T) z T'] over z_j = e^{i pi (2j + shift)/n}, j < n.

    ``polys`` holds num, den, z num' and z den'.  The nodes are evaluated
    in chunks of m = min(n, max(QUADRATURE_CHUNK, 2^ceil(log2 L))), L the
    longest row's length: those with j = r (mod n/m) are the m-th roots of
    unity rotated by e^{i pi (2r + shift)/n}.  The conjugate of node j is
    node -j - shift (mod n), so chunk r's conjugates form chunk
    (-r - shift) mod (n/m).  Real rows give T(conj z) = conj T(z), and both
    integrands take equal values there: one chunk of each such pair is
    evaluated and counted twice.
    """
    longest = max(len(c) for c in polys)
    m = min(n, max(QUADRATURE_CHUNK, 1 << (longest - 1).bit_length()))
    chunks = n // m
    real = not any(np.iscomplexobj(c) for c in polys)
    sums = np.zeros(2)
    for r in range(chunks):
        pair = (-r - shift) % chunks if real else r
        if pair < r:
            continue
        nv, dv, znv, zdv = _on_rotated_nodes(polys, m, np.pi * (2 * r + shift) / n)
        inv = 1.0 / dv
        t = nv * inv
        # z T' = (z num' - T z den') / den
        zdt = (znv - t * zdv) * inv
        chunk = np.array([np.vdot(t, t).real, np.vdot(t, zdt).real])
        sums += chunk if pair == r else 2.0 * chunk
    return sums / n


def walk_stats_by_quadrature(amp: RationalAmplitude) -> WalkStats:
    """p_out and hitting time by quadrature on the unit circle.

    Parseval turns the coefficient sums into circle averages:
    sum |c_m|^2 is the mean of |T|^2 and sum m |c_m|^2 the mean of
    Re[conj(T) z T'(z)].  Periodic trapezoid sums converge exponentially for
    these analytic integrands; the form must be in lowest terms, so no
    removable 0/0 sits on the circle.  The rule is nested: the n-node sum
    on the n-th roots of unity, T_n, refines to T_2n = (T_n + M_n)/2, with
    M_n the mean over the n midpoints e^{i pi (2j + 1)/n}, so each doubling
    evaluates only new nodes.  n doubles from 512 up to 2^19.  The n-node
    rule errs by O(rho^-n), rho the smallest pole radius (Trefethen and
    Weideman, SIAM Review 56, 2014), so T_2n is accepted once rho^-n <
    QUADRATURE_TOL and both means moved by less than QUADRATURE_TOL
    relative (to at least 1e-3); a polynomial form needs only the second.
    As on the series route, p_out counts steps m >= 1: the zero-step weight
    |c_0|^2 is taken off the mean, and a form with nothing left raises
    ValueError.  P(m) is not resolved by this route, so p_of_m comes back
    empty.
    """
    rho = _pole_radius(amp)  # raises on a unit-circle pole
    num, den = amp.num, amp.den
    polys = (num, den, np.arange(len(num)) * num, np.arange(len(den)) * den)

    n = 512
    rule = _circle_means(polys, n, 0)
    while True:
        if n >= QUADRATURE_MAX_NODES:
            raise ArithmeticError("circle quadrature did not converge")
        means = 0.5 * (rule + _circle_means(polys, n, 1))
        decayed = rho is None or rho ** -n < QUADRATURE_TOL
        n *= 2
        if decayed and np.all(np.abs(means - rule)
                              < QUADRATURE_TOL * np.maximum(np.abs(means), 1e-3)):
            break
        rule = means
    p_out, moment = float(means[0]), float(means[1])

    if not (0.0 < p_out <= 1.0 + 1e-9):
        raise ValueError(
            f"mean |T|^2 = {p_out:.6f} is outside (0, 1]; "
            "amplitude is not flux-conserving"
        )
    return _walk_stats(p_out - float(abs(amp.num[0] / amp.den[0])) ** 2, moment)
