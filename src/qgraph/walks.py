"""Quantum-walk statistics from the transmission generating function.

With unit-length edges the transmission amplitude t(z), z = e^{ikl}, is a
generating function: the coefficient c_m of z^m sums the amplitudes of every
lead-to-lead path of m steps.  P(m) = |c_m|^2 is the probability of exiting
in exactly m steps, p_out = sum P(m) the total exit probability through the
exit lead, and h = sum m P(m) / p_out the conditional hitting time.

Coefficients come from two independent routes that cross-check each other:
a linear recurrence on the rational amplitude, and direct power iteration of
the bond map.  Both return coefficients only.  The statistics come from
walk_stats_to_tolerance, which bounds the truncation error with one
geometric tail rule set by the smallest pole radius, and independently from
quadrature on the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .closedforms import RationalAmplitude, UnitCirclePoleError
from .graphs import QuantumGraph, subdivide_integral
from .solver import assemble_bond_system

# A pole radius at most this far outside the unit circle is refused: flux
# conservation puts every pole of a lowest-terms form strictly outside, and
# a walk series whose pole sits on the circle does not decay.
MARGINAL_MODE_CUTOFF = 1e-9

# Highest truncation order walk_stats_to_tolerance expands before refusing.
ORDER_CAP = 32768


class TruncationError(ArithmeticError):
    """The truncated series cannot certify the requested tolerance."""


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
        weight = float(np.sum(np.abs(c) ** 2))
        if weight > 1.0 + 1e-9:
            raise ValueError(
                f"total weight {weight:.6f} exceeds 1; amplitude is not flux-conserving"
            )
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


def _recurrence(num: np.ndarray, den: np.ndarray, order: int, head=()) -> np.ndarray:
    """Taylor coefficients of num/den via c_m = (num_m - sum den_j c_{m-j})/den_0.

    An earlier expansion ``head`` is extended: its coefficients are copied.
    """
    c = np.zeros(order + 1, dtype=complex)
    c[:len(head)] = head
    d0 = den[0]
    for m in range(len(head), order + 1):
        acc = num[m] if m < len(num) else 0.0
        jmax = min(m, len(den) - 1)
        if jmax:
            acc -= np.dot(den[1:jmax + 1], c[m - 1::-1][:jmax])
        c[m] = acc / d0
    return c


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
        raise UnitCirclePoleError(
            f"pole at |z| = {rho:.12f}; the walk series does not decay"
        )
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
    """
    if max_order < 0:
        raise ValueError("max_order must be non-negative")
    system = assemble_bond_system(subdivide_integral(graph))
    c = np.zeros(max_order + 1, dtype=complex)
    c[0] = system.direct_t
    if max_order >= 1:
        a = system.inj.copy()
        c[1] = a @ system.out_t
        for m in range(2, max_order + 1):
            a = system.smatrix @ a
            c[m] = a @ system.out_t
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
    if not (0 < tolerance < np.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    rho = _pole_radius(amp)
    degree = len(np.trim_zeros(amp.den, "b")) - 1
    order = 64
    while order < len(amp.num) + degree:
        order *= 2
    if order > ORDER_CAP:
        raise TruncationError(f"a form of this degree needs order {order} > {ORDER_CAP}")
    c = ()
    while True:
        # WalkSeries refuses a total weight above 1, checked on every round.
        c = WalkSeries(coefficients=_recurrence(amp.num, amp.den, order, c),
                       order=order).coefficients
        p = np.abs(c) ** 2
        p_out = float(p[1:].sum())
        if p_out <= 0.0:
            # order >= len(num) + deg den, so every later coefficient is 0 too.
            raise ValueError("no transmitted weight at steps m >= 1; the amplitude is constant")
        h = float(np.dot(np.arange(1, len(p), dtype=float), p[1:])) / p_out
        err = _geometric_tail(c, rho, max(32, degree)) * (1.0 + h) / p_out
        if err < tolerance:
            break
        if order >= ORDER_CAP:
            raise TruncationError(
                f"order {order} leaves hitting-time error ~{err:.3e} "
                f"(> {tolerance:.1e}); the series decays too slowly to certify"
            )
        order *= 2
    if h < 1.0:
        raise ArithmeticError(f"hitting time {h} < 1; series is inconsistent")
    return WalkStats(p_of_m=p, p_out=p_out, hitting_time=h)


def walk_stats_by_quadrature(amp: RationalAmplitude) -> WalkStats:
    """p_out and hitting time by quadrature on the unit circle.

    Parseval turns the coefficient sums into circle averages:
    sum |c_m|^2 is the mean of |T|^2 and sum m |c_m|^2 the mean of
    Re[conj(T) z T'(z)].  Periodic trapezoid sums converge exponentially for
    these analytic integrands; the form must be in lowest terms, so no
    removable 0/0 sits on the circle.  As on the series route, p_out counts
    steps m >= 1: the zero-step weight |c_0|^2 is taken off the mean, and a
    form with nothing left raises ValueError.  P(m) is not resolved by this
    route, so p_of_m comes back empty.
    """
    _pole_radius(amp)  # raises on a unit-circle pole
    dnum = npoly.polyder(amp.num)
    dden = npoly.polyder(amp.den)

    def integrands(theta):
        z = np.exp(1j * theta)
        nv = npoly.polyval(z, amp.num)
        dv = npoly.polyval(z, amp.den)
        t = nv / dv
        dt = (npoly.polyval(z, dnum) * dv - nv * npoly.polyval(z, dden)) / dv**2
        return np.abs(t) ** 2, np.real(np.conj(t) * z * dt)

    prev = None
    n = 512
    while n <= (1 << 19):
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        w2, s1 = integrands(theta)
        p_out = float(np.mean(w2))
        moment = float(np.mean(s1))
        if prev is not None:
            d0 = abs(p_out - prev[0])
            d1 = abs(moment - prev[1])
            if d0 < 1e-12 * max(p_out, 1e-3) and d1 < 1e-12 * max(abs(moment), 1e-3):
                break
        prev = (p_out, moment)
        n *= 2
    else:
        raise ArithmeticError("circle quadrature did not converge")

    if not (0.0 < p_out <= 1.0 + 1e-9):
        raise ValueError(
            f"mean |T|^2 = {p_out:.6f} is outside (0, 1]; "
            "amplitude is not flux-conserving"
        )
    p_out -= float(abs(amp.num[0] / amp.den[0])) ** 2
    if p_out <= 0.0:
        raise ValueError("no transmitted weight at steps m >= 1; the amplitude is constant")
    h = moment / p_out
    return WalkStats(p_of_m=np.zeros(0), p_out=p_out, hitting_time=h)
