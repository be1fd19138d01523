"""Closed-form transmission amplitudes as rational functions of z = e^{ikl}.

For a cycle with both leads on adjacent vertices the global transmission
amplitude is a ratio of low-degree polynomials in z.  This module builds
those polynomials three ways: from the symmetric vertex parameterization
(r, t at the two lead vertices, r', t' at the others), from the general NK
cycle formula, and, for audit purposes, from a known-flawed variant of the
NK-reduced forms that violates unitarity and exists only so tests can prove
it wrong.

The two families are built in lowest terms and with the solver's sign, so
at NK parameters they equal the forms extract_rational_amplitude returns.
Every RationalAmplitude is taken to be in lowest terms: a vanishing
denominator is a pole, never a removable 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .graphs import UNITARITY_TOL_CHECK, unitarity_defect

# A polynomial value this small (coefficients are O(1)) counts as zero.
SINGULARITY_TOL = 1e-12


class UnitCirclePoleError(ArithmeticError):
    """The denominator vanished on (or inside) the unit circle."""


@dataclass(frozen=True, eq=False)
class RationalAmplitude:
    """Polynomial ratio num(z)/den(z), coefficients in ascending powers.

    The form must be in lowest terms: no root of den may be a root of num.
    Coefficients are stored as float64 when every imaginary part is 0.0
    (every NK form), and as complex128 otherwise.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        den = np.atleast_1d(np.asarray(self.den, dtype=complex))
        if not (num.imag.any() or den.imag.any()):
            num, den = num.real.copy(), den.real.copy()
        if den[0] == 0:
            raise ValueError("denominator constant term must be nonzero")
        num.setflags(write=False)
        den.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1


def eval_amplitude(amp: RationalAmplitude, kl: float) -> complex:
    """Evaluate the amplitude at z = e^{i kl}.

    The form is in lowest terms, so a denominator below 1e-12 is a pole and
    raises; unitary parameter sets have none on the unit circle.
    """
    z = np.exp(1j * kl)
    dv = complex(npoly.polyval(z, amp.den))
    if abs(dv) < SINGULARITY_TOL:
        raise UnitCirclePoleError(f"denominator vanished at kl={kl!r}")
    return complex(npoly.polyval(z, amp.num)) / dv


def _lowest_terms(num, den) -> RationalAmplitude:
    """Divide (1 - z) and (1 + z) out of num and den while both vanish there.

    These common roots are trapped modes at kl = 0 and kl = pi: standing
    waves with nodes at the lead vertices, which no lead feeds or sees.
    """
    for root in (1.0, -1.0):
        w = root ** np.arange(max(len(num), len(den)))  # w[:len(p)] @ p = p(root)
        while len(den) > 1 and all(
            abs(w[: len(p)] @ p) < SINGULARITY_TOL * np.sum(np.abs(p)) for p in (num, den)
        ):
            # Synthetic division by (1 - root z): q_k = p_k + root q_(k-1).
            num, den = ((w[: len(p)] * np.cumsum(w[: len(p)] * p))[:-1] for p in (num, den))
    return RationalAmplitude(num, den)


def _check_symmetric_unitary(r, t, rp, tp, lead_degree: int) -> None:
    """The symmetric parameterization must come from unitary vertices.

    ``lead_degree`` is the size of the symmetric matrix at the lead vertices
    (3 for the cycle families here); the off-lead vertices contribute the
    2x2 [[r', t'], [t', r']].
    """
    d = lead_degree
    m_lead = np.full((d, d), t, dtype=complex)
    np.fill_diagonal(m_lead, r)
    m_rest = np.array([[rp, tp], [tp, rp]], dtype=complex)
    for name, m in (("lead-vertex", m_lead), ("interior-vertex", m_rest)):
        defect = unitarity_defect(m)
        if defect > UNITARITY_TOL_CHECK:
            raise ValueError(
                f"{name} parameters are not unitary (defect {defect:.3e})"
            )


def symmetric_c3_amplitude(r, t, r3, t3) -> RationalAmplitude:
    """Triangle amplitude for symmetric vertex parameters.

    The two lead vertices share reflection r and transmission t (3x3
    symmetric unitary), the remaining vertex has r3, t3 (2x2).  NK values
    are r=-1/3, t=2/3, r3=0, t3=1.
    """
    _check_symmetric_unitary(r, t, r3, t3, lead_degree=3)
    rp, tp = r3, t3
    w = r - t
    num = np.array(
        [
            0.0,
            t**2,
            t**2 * tp,
            -2 * t**2 * rp * w,
            -(t**2) * w**2 * tp,
            t**2 * w**2 * (rp**2 - tp**2),
        ],
        dtype=complex,
    )
    den = np.array(
        [
            1.0,
            0.0,
            -r * (r + 2 * rp),
            -2 * t**2 * tp,
            r * (r * rp * (2 * r + rp) - 2 * rp * t**2 - r * tp**2),
            0.0,
            -(w**2) * (r + t) ** 2 * (rp - tp) * (rp + tp),
        ],
        dtype=complex,
    )
    return _lowest_terms(num, den)


def symmetric_c4_amplitude(r, t, rp, tp) -> RationalAmplitude:
    """Square amplitude for symmetric vertex parameters.

    Lead vertices share r, t; the two interior vertices share rp, tp.  The
    numerator is t^2 z (1 - a z^2)(1 - b z^2)(1 - c z^2) for the pairwise
    products a, b, c of (r - t), (rp - tp), (rp + tp).
    """
    _check_symmetric_unitary(r, t, rp, tp, lead_degree=3)
    a = (r - t) * (rp - tp)
    b = (r - t) * (rp + tp)
    c = (rp - tp) * (rp + tp)
    num = np.array(
        [
            0.0,
            t**2,
            0.0,
            -(t**2) * (a + b + c),
            0.0,
            t**2 * (a * b + a * c + b * c),
            0.0,
            -(t**2) * a * b * c,
        ],
        dtype=complex,
    )
    den = np.array(
        [
            1.0,
            0.0,
            -((r + rp) ** 2),
            0.0,
            2 * (r * rp * (r**2 + r * rp + rp**2 - t**2) - (r * rp + t**2) * tp**2),
            0.0,
            -((-r * rp * (r + rp) + rp * t**2 + r * tp**2) ** 2),
            0.0,
            (r**2 - t**2) ** 2 * (rp**2 - tp**2) ** 2,
        ],
        dtype=complex,
    )
    return _lowest_terms(num, den)


def cycle_nk_amplitude(n: int) -> RationalAmplitude:
    """NK cycle amplitude for leads on adjacent vertices of an n-cycle.

    Numerator 4 (1 - z^n)(z + z^(n-1)) and denominator
    9 - z^2 - z^(2(n-1)) - 8 z^n + z^(2n), with (1 - z), and for even n also
    (1 + z), divided out.  Equals the symmetric C3/C4 amplitudes at NK
    parameters and, sign included, extract_rational_amplitude(make_cycle_graph(n)).
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"cycle size must be an integer >= 3, got {n!r}")
    n = int(n)
    num = np.zeros(2 * n, dtype=complex)
    num[1] += 4
    num[n - 1] += 4
    num[n + 1] += -4
    num[2 * n - 1] += -4
    den = np.zeros(2 * n + 1, dtype=complex)
    den[0] += 9
    den[2] += -1
    den[2 * (n - 1)] += -1
    den[n] += -8
    den[2 * n] += 1
    return _lowest_terms(num, den)


def flawed_reduced_amplitude(n: int) -> RationalAmplitude:
    """Known-bad variant of the NK-reduced C3/C4 forms, kept as an audit fixture.

    These polynomial coefficients carry sign/arrangement errors: the n=4 form
    gives |T|^2 = 64/41 > 1 at kl = pi/2, and the n=3 form disagrees with the
    correct value 1/2 there.  The corrected forms, in lowest terms, are what
    extract_rational_amplitude returns for the NK triangle and square.  These
    are excluded from every physics path; the audit tests detect the flaws.
    """
    if n == 3:
        num = [0, 4, 8, 8, 4]
        den = [9, -9, -8, 0, 1, 1]
    elif n == 4:
        num = [0, 4, 0, -8, 0, 4]
        den = [9, 8, 0, 0, 0, 0, -1]
    else:
        raise ValueError("flawed reduced forms exist only for n = 3 and n = 4")
    return RationalAmplitude(np.array(num, dtype=complex), np.array(den, dtype=complex))
