"""Rational transmission amplitudes: evaluation, cross-agreement, audits."""

import numpy as np
import pytest

import qgraph as qg

NK3_R, NK3_T = -1.0 / 3.0, 2.0 / 3.0
NK2_R, NK2_T = 0.0, 1.0


def _grid(samples=1000, margin=0.0123):
    return np.linspace(margin, 2.0 * np.pi - margin, samples)


def test_eval_amplitude_plain_ratio():
    # T(z) = z / (2 - z) at kl = pi/2 (z = i): i/(2-i) = (-1 + 2i)/5
    amp = qg.RationalAmplitude(num=[0.0, 1.0], den=[2.0, -1.0])
    value = qg.eval_amplitude(amp, np.pi / 2.0)
    assert abs(value - (-1.0 + 2.0j) / 5.0) < 1e-15
    assert amp.degree == 1


def test_rational_amplitude_rejects_zero_leading_denominator():
    with pytest.raises(ValueError):
        qg.RationalAmplitude(num=[1.0], den=[0.0, 1.0])


def test_symmetric_forms_reject_non_unitary_parameters():
    with pytest.raises(ValueError):
        qg.symmetric_c3_amplitude(NK3_R, NK3_T, NK3_R, NK3_T)
    with pytest.raises(ValueError):
        qg.symmetric_c4_amplitude(0.5, 0.5, NK2_R, NK2_T)


def test_triangle_forms_agree_in_probability():
    sym = qg.symmetric_c3_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)
    gen = qg.cycle_nk_amplitude(3)
    for kl in _grid():
        a = abs(qg.eval_amplitude(sym, kl)) ** 2
        b = abs(qg.eval_amplitude(gen, kl)) ** 2
        assert abs(a - b) < 1e-12


def test_square_forms_agree_in_probability():
    sym = qg.symmetric_c4_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)
    gen = qg.cycle_nk_amplitude(4)
    for kl in _grid():
        a = abs(qg.eval_amplitude(sym, kl)) ** 2
        b = abs(qg.eval_amplitude(gen, kl)) ** 2
        assert abs(a - b) < 1e-12


def test_triangle_anchor_half_transmission():
    sym = qg.symmetric_c3_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)
    assert abs(abs(qg.eval_amplitude(sym, np.pi / 2.0)) ** 2 - 0.5) < 1e-12


def test_square_anchor_full_suppression():
    sym = qg.symmetric_c4_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)
    assert abs(qg.eval_amplitude(sym, np.pi / 2.0)) ** 2 < 1e-12


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_amplitude_matches_solver(n):
    amp = qg.cycle_nk_amplitude(n)
    graph = qg.make_cycle_graph(n)
    kl = _grid(500)
    t, _ = qg.solve_many(graph, kl)
    closed = np.array([abs(qg.eval_amplitude(amp, x)) ** 2 for x in kl])
    assert np.max(np.abs(np.abs(t) ** 2 - closed)) < 1e-8


@pytest.mark.parametrize(
    "amp",
    [
        qg.symmetric_c3_amplitude(NK3_R, NK3_T, NK2_R, NK2_T),
        qg.symmetric_c4_amplitude(NK3_R, NK3_T, NK2_R, NK2_T),
        qg.cycle_nk_amplitude(3),
        qg.cycle_nk_amplitude(4),
        qg.cycle_nk_amplitude(7),
    ],
)
def test_probability_bounded_on_unit_circle(amp):
    worst = max(abs(qg.eval_amplitude(amp, kl)) ** 2 for kl in _grid())
    assert worst <= 1.0 + 1e-9


def test_square_removable_point_has_unit_limit():
    # The unreduced forms vanish over both numerator and denominator at
    # kl = pi; in lowest terms the value there is the finite limit, and the
    # transmission probability is exactly 1.
    sym = qg.symmetric_c4_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)
    value = qg.eval_amplitude(sym, np.pi)
    assert abs(value + 1.0) < 1e-6
    gen = qg.cycle_nk_amplitude(4)
    assert abs(abs(qg.eval_amplitude(gen, np.pi)) ** 2 - 1.0) < 1e-6


def test_genuine_pole_raises():
    amp = qg.RationalAmplitude(num=[1.0], den=[1.0, -1.0])
    with pytest.raises(qg.UnitCirclePoleError):
        qg.eval_amplitude(amp, 0.0)


def test_form_not_in_lowest_terms_is_refused():
    # (1 - z)/(2 (1 - z)) shares its root at z = 1; it must be reduced first
    amp = qg.RationalAmplitude(num=[1.0, -1.0], den=[2.0, -2.0])
    with pytest.raises(qg.UnitCirclePoleError):
        qg.eval_amplitude(amp, 0.0)
    with pytest.raises(qg.UnitCirclePoleError):
        qg.walk_stats_to_tolerance(amp)


@pytest.mark.parametrize(
    "n, closed",
    [(n, qg.cycle_nk_amplitude(n)) for n in range(3, 41)]
    + [
        (3, qg.symmetric_c3_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)),
        (4, qg.symmetric_c4_amplitude(NK3_R, NK3_T, NK2_R, NK2_T)),
    ],
)
def test_closed_forms_equal_extracted_forms(n, closed):
    # lowest terms and the solver's sign: the same coefficients once den(0) = 1
    extracted = qg.extract_rational_amplitude(qg.make_cycle_graph(n))
    assert len(closed.num) == len(extracted.num)
    assert len(closed.den) == len(extracted.den)
    scale = closed.den[0]
    assert np.max(np.abs(closed.num / scale - extracted.num)) < 1e-12
    assert np.max(np.abs(closed.den / scale - extracted.den)) < 1e-12


def test_coefficients_are_read_only():
    amp = qg.cycle_nk_amplitude(3)
    with pytest.raises(ValueError):
        amp.num[0] = 5.0


def test_flawed_square_form_breaks_unitarity_at_quarter_turn():
    flawed = qg.flawed_reduced_amplitude(4)
    value = abs(qg.eval_amplitude(flawed, np.pi / 2.0)) ** 2
    assert abs(value - 64.0 / 41.0) < 1e-12
    assert value > 1.0


def test_flawed_triangle_form_disagrees_with_solver():
    flawed = qg.flawed_reduced_amplitude(3)
    value = abs(qg.eval_amplitude(flawed, np.pi / 2.0)) ** 2
    assert abs(value - 32.0 / 388.0) < 1e-12
    good = abs(qg.eval_amplitude(qg.cycle_nk_amplitude(3), np.pi / 2.0)) ** 2
    assert abs(value - good) > 0.1


def test_flawed_forms_only_exist_for_documented_sizes():
    with pytest.raises(ValueError):
        qg.flawed_reduced_amplitude(5)
