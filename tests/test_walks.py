"""Walk coefficients, dual oracles, hitting times, truncation control."""

import numpy as np
import pytest

import qgraph as qg
from qgraph.walks import _geometric_tail, _pole_radius, taylor_coefficients


def _series(graph, order):
    return taylor_coefficients(qg.extract_rational_amplitude(graph), order)


def test_triangle_leading_coefficients():
    c = _series(qg.make_cycle_graph(3), 6).coefficients
    assert abs(c[0]) < 1e-12
    assert abs(c[1] - 4.0 / 9.0) < 1e-12
    assert abs(c[2] - 4.0 / 9.0) < 1e-12
    assert abs(c[3] - 4.0 / 81.0) < 1e-12


def test_square_leading_coefficients():
    c = _series(qg.make_cycle_graph(4), 6).coefficients
    assert abs(c[1] - 4.0 / 9.0) < 1e-12
    assert abs(c[2]) < 1e-12
    assert abs(c[3] - 40.0 / 81.0) < 1e-12
    assert abs(c[4]) < 1e-12
    assert abs(c[5] - 4.0 / 729.0) < 1e-12


def test_recurrence_normalizes_global_sign():
    # the general cycle form is built with the solver's physical sign, so
    # the series route returns positive single-step amplitudes as they are
    c = taylor_coefficients(qg.cycle_nk_amplitude(3), 6).coefficients
    assert abs(c[1] - 4.0 / 9.0) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dual_oracle_on_cycles(n):
    graph = qg.make_cycle_graph(n)
    a = taylor_coefficients(qg.cycle_nk_amplitude(n), 200).coefficients
    b = qg.coefficients_via_power_iteration(graph, 200).coefficients
    # the closed form carries the solver's sign, so no sign is forgiven
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("text", ["c3-c3", "c4-c4", "c3-c4-c3"])
def test_dual_oracle_on_compositions(text):
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    a = _series(graph, 200).coefficients
    b = qg.coefficients_via_power_iteration(graph, 200).coefficients
    assert np.max(np.abs(a - b)) < 1e-12


def test_power_iteration_terminating_series():
    # lead - edge - lead: the walk exits after exactly one step
    path = qg.QuantumGraph(
        vertex_ids=(1, 2),
        boundary=(qg.NK, qg.NK),
        edges=(qg.Edge(1, 2),),
        leads=(1, 2),
    )
    series = qg.coefficients_via_power_iteration(path, 6)
    assert abs(series.coefficients[1] - 1.0) < 1e-15
    assert np.max(np.abs(np.delete(series.coefficients, 1))) < 1e-15


def test_integral_lengths_stretch_the_step_index():
    # doubling every edge length maps c_m to c_{2m}
    unit = qg.coefficients_via_power_iteration(qg.make_cycle_graph(3), 6)
    stretched = qg.coefficients_via_power_iteration(
        qg.scale_lengths(qg.make_cycle_graph(3), 2.0), 12
    )
    assert np.max(np.abs(stretched.coefficients[::2] - unit.coefficients)) < 1e-12
    assert np.max(np.abs(stretched.coefficients[1::2])) < 1e-15


@pytest.mark.parametrize(
    "make",
    [
        lambda: qg.make_cycle_graph(3),
        lambda: qg.make_cycle_graph(4),
        lambda: qg.compose_series(qg.parse_series_shorthand("c3-c3")),
    ],
)
def test_both_channels_conserve_probability(make):
    graph = make()
    t_amp = qg.extract_rational_amplitude(graph, channel="transmission")
    r_amp = qg.extract_rational_amplitude(graph, channel="reflection")
    total = sum(
        float(np.sum(np.abs(taylor_coefficients(amp, 800).coefficients) ** 2))
        for amp in (t_amp, r_amp)
    )
    assert abs(total - 1.0) < 1e-8


def test_series_keeps_a_negative_leading_coefficient():
    # -z/(2 - z): c_m = -2^(-m), with no sign normalization
    amp = qg.RationalAmplitude(num=[0.0, -1.0], den=[2.0, -1.0])
    c = taylor_coefficients(amp, 4).coefficients
    assert np.allclose(c, [0.0, -0.5, -0.25, -0.125, -0.0625], rtol=0, atol=1e-15)


def test_walk_series_rejects_unnormalizable_coefficients():
    with pytest.raises(ValueError, match="flux"):
        qg.WalkSeries(coefficients=[0.0, 1.2], order=1)
    with pytest.raises(ValueError):
        qg.WalkSeries(coefficients=[0.0, 0.5], order=3)


def test_triangle_hitting_time():
    stats = qg.walk_stats_to_tolerance(
        qg.extract_rational_amplitude(qg.make_cycle_graph(3))
    )
    assert abs(stats.p_out - 8.0 / 19.0) < 1e-9
    assert abs(stats.hitting_time - 1.9161184210526325) < 1e-9
    assert np.all(stats.p_of_m >= 0.0)
    assert 0.0 < stats.p_out <= 1.0


def test_square_hitting_time_matches_exact_fraction():
    stats = qg.walk_stats_to_tolerance(
        qg.extract_rational_amplitude(qg.make_cycle_graph(4))
    )
    assert abs(stats.p_out - 4.0 / 9.0) < 1e-9
    assert abs(stats.hitting_time - 155.0 / 72.0) < 1e-9


@pytest.mark.parametrize(
    "source", ["c3", "c4", "c3-c3", "c4-c4", "c3-c4-c3", "c3+c3", "c3+c4+c3", "shared-c3"]
)
def test_quadrature_route_agrees_with_series(source):
    # shared-c3: both leads on one triangle vertex, so c_0 = 1/2 is a
    # zero-step weight that neither route may count
    if source == "shared-c3":
        bare = qg.strip_leads(qg.make_cycle_graph(3))
        graph = qg.attach_lead(qg.attach_lead(bare, 1), 1)
    else:
        graph = qg.compose_series(qg.parse_series_shorthand(source))
    amp = qg.extract_rational_amplitude(graph)
    series_stats = qg.walk_stats_to_tolerance(amp)
    quad_stats = qg.walk_stats_by_quadrature(amp)
    assert abs(series_stats.hitting_time - quad_stats.hitting_time) < 1e-8
    assert abs(series_stats.p_out - quad_stats.p_out) < 1e-8
    assert quad_stats.p_of_m.size == 0


def test_truncation_error_when_order_is_too_low():
    # c31's pole sits too close to the circle to certify by order 32768
    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(31))
    with pytest.raises(qg.TruncationError, match="order 32768 .* decays too slowly"):
        qg.walk_stats_to_tolerance(amp, tolerance=1e-8)


def test_no_transmitted_weight_is_reported():
    # a constant form has weight only at m = 0: no truncation is involved
    constant = qg.RationalAmplitude([0.5], [1.0])
    with pytest.raises(ValueError, match="no transmitted weight"):
        qg.walk_stats_to_tolerance(constant)
    with pytest.raises(ValueError, match="no transmitted weight"):
        qg.walk_stats_by_quadrature(constant)


def test_polynomial_form_is_summed_exactly():
    # a terminating walk: every order >= len(num) holds the whole series
    amp = qg.RationalAmplitude(num=[0.0, 0.6, 0.8], den=[1.0])
    stats = qg.walk_stats_to_tolerance(amp)
    assert abs(stats.p_out - 1.0) < 1e-15
    assert abs(stats.hitting_time - 1.64) < 1e-15


def test_no_order_below_the_forms_degree():
    # a numerator of degree 39 999 needs order 65 536, past the cap
    num = np.zeros(40000)
    num[-1] = 0.5
    amp = qg.RationalAmplitude(num=num, den=[1.0, -0.5])
    with pytest.raises(qg.TruncationError, match="needs order 65536"):
        qg.walk_stats_to_tolerance(amp)


def test_tail_bound_covers_the_true_remainder():
    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(3))
    rho = _pole_radius(amp)
    reference = taylor_coefficients(amp, 2000).coefficients
    for order in (50, 100):
        bound = _geometric_tail(reference[:order + 1], rho, 32)
        m = np.arange(order + 1, 2001, dtype=float)
        true_tail = float(np.sum(m * np.abs(reference[order + 1:]) ** 2))
        assert true_tail <= bound
    # decay is certified far below any practical tolerance by order 200
    assert _geometric_tail(reference[:201], rho, 32) < 1e-20


@pytest.mark.parametrize(
    "n, exact_h",
    [(64, 52.37140053361426), (80, 65.76025491567879), (99, 82.2515279914363)],
)
def test_slow_rings_are_refused_or_right(n, exact_h):
    # the wave returns about every n steps, so a tail window shorter than
    # that can sit in a silent gap and certify h = 32.0 (c64) or 1.025
    try:
        stats = qg.walk_stats_to_tolerance(qg.cycle_nk_amplitude(n))
    except qg.TruncationError:
        return
    assert abs(stats.hitting_time - exact_h) < 1e-6


def test_genuine_unit_pole_blocks_both_routes():
    amp = qg.RationalAmplitude(num=[1.0], den=[1.0, -1.0])
    with pytest.raises(qg.UnitCirclePoleError):
        qg.walk_stats_to_tolerance(amp)
    with pytest.raises(qg.UnitCirclePoleError):
        qg.walk_stats_by_quadrature(amp)


def test_quadrature_rejects_flux_violations():
    amp = qg.RationalAmplitude(num=[2.0], den=[1.0])
    with pytest.raises(ValueError, match="flux"):
        qg.walk_stats_by_quadrature(amp)
