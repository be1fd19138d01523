"""Walk coefficients, dual oracles, hitting times, truncation control."""

import numpy as np
import pytest

import qgraph as qg
from qgraph.solver import _reduce
from qgraph.walks import (
    KRYLOV_BLOCK,
    _geometric_tail,
    _gramian_stats,
    _on_rotated_nodes,
    _pole_radius,
    _recurrence,
    taylor_coefficients,
)


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


def test_walk_series_rejects_nan_coefficients():
    with pytest.raises(ValueError, match="not a number"):
        qg.WalkSeries(coefficients=[0.0, np.nan], order=1)


def test_power_iteration_refuses_a_nan_vertex_matrix():
    # assembly validates the graph, which names the entry
    nan = np.full((2, 2), np.nan, dtype=complex)
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2, 3),
        boundary=(qg.NK, qg.NK, nan),
        edges=(qg.Edge(1, 2), qg.Edge(2, 3), qg.Edge(3, 1)),
        leads=(1, 2),
    )
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is not finite"):
        qg.coefficients_via_power_iteration(graph, 3)


def test_series_route_refuses_a_total_weight_above_one():
    # 1.2 z carries weight 1.44: the certified series checks every expansion
    with pytest.raises(ValueError, match="exceeds 1"):
        qg.walk_stats_to_tolerance(qg.RationalAmplitude([0.0, 1.2], [1.0]))


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


def test_quadrature_refuses_a_hitting_time_below_one(monkeypatch):
    # sum m P(m) over m >= 1 is at least p_out, so h < 1 means the route is
    # inconsistent; the circle means are faked to p_out 0.5, moment 0.25
    monkeypatch.setattr("qgraph.walks._circle_means",
                        lambda polys, n, shift: np.array([0.5, 0.25]))
    with pytest.raises(ArithmeticError, match="hitting time 0.5 < 1"):
        qg.walk_stats_by_quadrature(qg.RationalAmplitude([0.0, 0.6, 0.8], [1.0]))


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


def test_a_root_inside_the_circle_is_named_a_numerical_failure():
    amp = qg.RationalAmplitude(num=[1.0], den=[1.0, -2.0])  # root at z = 0.5
    for route in (qg.walk_stats_to_tolerance, qg.walk_stats_by_quadrature):
        with pytest.raises(qg.UnitCirclePoleError,
                           match="inside the unit circle, so the form is not flux-conserving"):
            route(amp)


def test_quadrature_rejects_flux_violations():
    amp = qg.RationalAmplitude(num=[2.0], den=[1.0])
    with pytest.raises(ValueError, match="flux"):
        qg.walk_stats_by_quadrature(amp)


def _scalar_recurrence(num, den, order):
    # reference: one coefficient at a time, c_m = (num_m - sum den_j c_{m-j}) / den_0
    c = np.zeros(order + 1, dtype=complex)
    for m in range(order + 1):
        acc = num[m] if m < len(num) else 0.0
        for j in range(1, min(m, len(den) - 1) + 1):
            acc -= den[j] * c[m - j]
        c[m] = acc / den[0]
    return c


def _stable_form(rng, degree, num_len):
    # den(z) = prod (1 - z / root), every root outside the unit circle
    roots = (1.05 + 2.0 * rng.random(degree)) * np.exp(2j * np.pi * rng.random(degree))
    den = np.poly(1.0 / roots)
    num = rng.normal(size=num_len) + 1j * rng.normal(size=num_len)
    return num, den


@pytest.mark.parametrize(
    "degree, num_len, order, head_order",
    [
        (1, 1, 700, None),  # random stable denominators
        (3, 3, 900, None),
        (8, 8, 1000, None),
        (17, 12, 1500, None),
        (4, 300, 1200, None),  # numerator longer than the denominator
        (0, 50, 600, None),  # constant denominator
        (6, 6, 1000, 300),  # extends a head by 700 coefficients
        (6, 6, 1001, 1000),  # extends by one coefficient
        (6, 6, 40, None),  # a short expansion
    ],
)
def test_block_recurrence_matches_the_scalar_loop(degree, num_len, order, head_order):
    # _recurrence, with and without a head to extend, against the reference
    # that sums one term at a time
    import qgraph.walks as walks_mod

    rng = np.random.default_rng(degree * 1000 + num_len + order)
    num, den = _stable_form(rng, degree, num_len)
    if degree == 0:
        den = np.array([2.0 + 1.0j])
    head = () if head_order is None else walks_mod._recurrence(num, den, head_order)
    c = walks_mod._recurrence(num, den, order, head)
    ref = _scalar_recurrence(num, den, order)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))
    if head_order is not None:
        assert np.array_equal(c[:head_order + 1], head)


def _power_loop(graph, order):
    # reference: one vector at a time, a <- S a and c_m = a @ out_t
    system = qg.assemble_bond_system(qg.subdivide_integral(graph))
    c = np.zeros(order + 1, dtype=system.smatrix.dtype)
    c[0] = system.direct_t
    if order >= 1:
        a = system.inj.copy()
        c[1] = a @ system.out_t
        for m in range(2, order + 1):
            a = system.smatrix @ a
            c[m] = a @ system.out_t
    return c


def _dot_per_step_recurrence(num, den, order, head=()):
    # reference: the recurrence calling np.dot(tail, window) per coefficient
    degree = len(den) - 1
    d0, tail = den[0], den[1:]
    nums = np.asarray(num).tolist()
    rc = np.zeros(order + 1 + degree, dtype=np.result_type(num, den, np.asarray(head)))
    rc[order + 1 - len(head):order + 1] = head[::-1]
    for m in range(len(head), order + 1):
        s = order - m
        acc = nums[m] if m < len(nums) else 0.0
        rc[s] = (acc - np.dot(tail, rc[s + 1:s + 1 + degree])) / d0
    return rc[order::-1].copy()


def _walk_graph(source):
    if source == "custom ring":
        # c5 with a random complex unitary at every vertex
        rng = np.random.default_rng(5)
        ring = qg.make_cycle_graph(5)
        unitaries = tuple(
            np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            for d in map(ring.degree, ring.vertex_ids)
        )
        return qg.QuantumGraph(ring.vertex_ids, unitaries, ring.edges, ring.leads)
    if source == "c3-c4-c3 x2":
        return qg.scale_lengths(qg.compose_series(qg.parse_series_shorthand("c3-c4-c3")), 2.0)
    return qg.make_cycle_graph(int(source[1:]))


WALK_SOURCES = ["c3", "c99", "c3-c4-c3 x2", "custom ring"]
# around the Krylov block's edges, and past two of them
WALK_ORDERS = [0, 1, 255, 256, 257, 600]


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_power_iteration_equals_the_vector_loop_bit_for_bit(source):
    graph = _walk_graph(source)
    assert KRYLOV_BLOCK == 256
    for order in WALK_ORDERS:
        c = qg.coefficients_via_power_iteration(graph, order).coefficients
        assert np.array_equal(c, _power_loop(graph, order)), order


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_series_equals_the_dot_per_step_loop_bit_for_bit(source):
    amp = qg.extract_rational_amplitude(_walk_graph(source))
    for order in WALK_ORDERS:
        c = taylor_coefficients(amp, order).coefficients
        assert np.array_equal(c, _dot_per_step_recurrence(amp.num, amp.den, order)), order
    # a head extended past it, as walk_stats_to_tolerance extends its expansions
    head = _recurrence(amp.num, amp.den, 257)
    assert np.array_equal(_recurrence(amp.num, amp.den, 600, head),
                          _dot_per_step_recurrence(amp.num, amp.den, 600, head))


@pytest.mark.parametrize("source", ["c5", "custom ring"])
def test_certified_series_extends_its_head_bit_for_bit(source):
    # walk_stats_to_tolerance doubles its order from 64, extending each
    # expansion; c5 certifies at order 512 after three extensions
    amp = qg.extract_rational_amplitude(_walk_graph(source))
    p = qg.walk_stats_to_tolerance(amp).p_of_m
    c, order = (), 64
    while len(c) < len(p):
        c = _dot_per_step_recurrence(amp.num, amp.den, order, c)
        order *= 2
    assert len(c) == len(p) >= 257
    assert np.array_equal(np.abs(c) ** 2, p)


def test_power_iteration_memory_is_one_block():
    # 20000 orders of c99's 198 bonds: a block of 256 rows is 0.4 MB, and
    # all the Krylov vectors at once would be 31.7 MB
    import tracemalloc

    graph = qg.make_cycle_graph(99)
    tracemalloc.start()
    try:
        qg.coefficients_via_power_iteration(graph, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("shift", [0, 600])
def test_quadrature_folds_forms_longer_than_its_nodes(shift):
    # z^700 exits after exactly 700 steps; z^600 t_c3 is c3's walk delayed
    # by 600 steps.  Both have more coefficients than the first 512 nodes.
    if shift == 0:
        num = np.zeros(701)
        num[700] = 1.0
        amp, p_exact, h_exact = qg.RationalAmplitude(num, [1.0]), 1.0, 700.0
    else:
        c3 = qg.extract_rational_amplitude(qg.make_cycle_graph(3))
        ref = qg.walk_stats_to_tolerance(c3)
        amp = qg.RationalAmplitude(np.concatenate([np.zeros(shift), c3.num]), c3.den)
        p_exact, h_exact = ref.p_out, ref.hitting_time + shift
    for stats in (qg.walk_stats_to_tolerance(amp), qg.walk_stats_by_quadrature(amp)):
        assert abs(stats.p_out - p_exact) < 1e-10
        assert abs(stats.hitting_time - h_exact) < 1e-8
    # a wrong fold would only cost the quadrature one more doubling, so the
    # 512 node values are checked against Horner's rule, itself off by
    # about degree * eps
    for phase in (np.pi / 512, 0.3):
        z = np.exp(1j * (phase + 2.0 * np.pi * np.arange(512) / 512))
        values = _on_rotated_nodes((amp.num, amp.den), 512, phase)
        assert np.max(np.abs(values[0] - np.polynomial.polynomial.polyval(z, amp.num))) < 1e-10
        assert np.max(np.abs(values[1] - np.polynomial.polynomial.polyval(z, amp.den))) < 1e-10


def test_quadrature_memory_stays_bounded():
    # c31 needs 2^19 nodes; evaluated in chunks of QUADRATURE_CHUNK they stay small
    import tracemalloc

    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(31))
    tracemalloc.start()
    try:
        qg.walk_stats_by_quadrature(amp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_quadrature_chunks_stay_under_one_mebibyte():
    # 2^10-node chunks: four 64 KiB arrays at a time, reused from the heap
    import tracemalloc

    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(31))
    tracemalloc.start()
    try:
        qg.walk_stats_by_quadrature(amp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _quadrature_levels(amp, monkeypatch):
    """walk_stats_by_quadrature's stats and its (n, shift) calls to _circle_means."""
    import qgraph.walks as walks_mod

    calls = []
    real = walks_mod._circle_means
    monkeypatch.setattr(walks_mod, "_circle_means",
                        lambda polys, n, shift: calls.append((n, shift)) or real(polys, n, shift))
    return qg.walk_stats_by_quadrature(amp), calls


@pytest.mark.parametrize("source", ["c31", "c4-c4", "c3-c4-c3"])
def test_quadrature_chunking_is_invisible(source, monkeypatch):
    # the chunk size only groups the nodes into FFTs: the doublings and the
    # sums they settle on do not depend on it
    import qgraph.walks as walks_mod

    amp = qg.extract_rational_amplitude(qg.compose_series(qg.parse_series_shorthand(source)))
    runs = []
    for chunk in (1 << 9, 1 << 10, 1 << 12, 1 << 14):
        with monkeypatch.context() as patch:
            patch.setattr(walks_mod, "QUADRATURE_CHUNK", chunk)
            runs.append(_quadrature_levels(amp, patch))
    ref, ref_calls = runs[0]
    ref_moment = ref.hitting_time * ref.p_out
    for stats, calls in runs[1:]:
        assert calls == ref_calls
        assert abs(stats.p_out - ref.p_out) <= 1e-13 * ref.p_out
        assert abs(stats.hitting_time * stats.p_out - ref_moment) <= 1e-13 * ref_moment


def test_quadrature_chunks_cover_long_forms(monkeypatch):
    # a form longer than QUADRATURE_CHUNK gets chunks at least as long as
    # itself (or one chunk of all n nodes), so its twist and fold per chunk
    # never outgrow the FFT; the form is real, so one chunk of each
    # conjugate pair is evaluated
    import qgraph.walks as walks_mod

    c31 = qg.extract_rational_amplitude(qg.make_cycle_graph(31))
    amp = qg.RationalAmplitude(np.concatenate([np.zeros(3000), c31.num]), c31.den)
    chunks = []
    real_means, real_nodes = walks_mod._circle_means, walks_mod._on_rotated_nodes

    def means(polys, n, shift):
        chunks.append([n, shift])
        return real_means(polys, n, shift)

    def nodes(polys, m, phase):
        chunks[-1].append(m)
        return real_nodes(polys, m, phase)

    monkeypatch.setattr(walks_mod, "_circle_means", means)
    monkeypatch.setattr(walks_mod, "_on_rotated_nodes", nodes)
    qg.walk_stats_by_quadrature(amp)
    assert len(amp.num) > walks_mod.QUADRATURE_CHUNK
    for n, shift, *ms in chunks:
        count = n // ms[0]
        assert len(ms) == len({min(r, (-r - shift) % count) for r in range(count)})
        assert all(m >= len(amp.num) or m == n for m in ms)
    assert any(m < n for n, shift, *ms in chunks for m in ms)


def _extended_circle_means(amp, n, block=1 << 13):
    """Means of |T|^2 and Re[conj(T) z T'] on the n-th roots of unity, by
    Horner's rule in extended precision (np.clongdouble)."""
    pi = 4 * np.arctan(np.longdouble(1))
    num, den = (np.asarray(c).astype(np.clongdouble) for c in (amp.num, amp.den))
    polys = (num, den, np.arange(len(num)) * num, np.arange(len(den)) * den)
    sums = np.zeros(2, dtype=np.longdouble)
    for lo in range(0, n, block):
        z = np.exp(2j * pi * np.arange(lo, min(n, lo + block), dtype=np.longdouble) / n)
        values = np.zeros((4, len(z)), dtype=np.clongdouble)
        for row, c in zip(values, polys):
            for coefficient in c[::-1]:
                row *= z
                row += coefficient
        nv, dv, znv, zdv = values
        t = nv / dv
        zdt = (znv - t * zdv) / dv
        sums += (np.abs(t) ** 2).sum(), (t.conj() * zdt).real.sum()
    return sums / n


@pytest.mark.parametrize("source", ["c3", "c31"])
def test_nested_quadrature_equals_one_shot_rule(source, monkeypatch):
    # the nested, chunked, conjugate-paired sums at the final n are the
    # n-node trapezoid rule on the n-th roots of unity; the reference sums
    # that rule in extended precision, since a float64 one-shot sum is
    # itself off by up to 8.4e-14 on c31
    import qgraph.walks as walks_mod

    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(int(source[1:])))
    calls = []
    real = walks_mod._circle_means
    monkeypatch.setattr(walks_mod, "_circle_means",
                        lambda polys, n, shift: calls.append((n, shift)) or real(polys, n, shift))
    stats = qg.walk_stats_by_quadrature(amp)
    n = 2 * calls[-1][0]
    assert calls == [(512, 0)] + [(512 << j, 1) for j in range(len(calls) - 1)]
    mean_t2, moment = (float(x) for x in _extended_circle_means(amp, n))
    p_out = mean_t2 - abs(amp.num[0] / amp.den[0]) ** 2
    assert abs(stats.p_out - p_out) < 1e-13
    assert abs(stats.hitting_time * stats.p_out - moment) < 1e-13
    if source == "c31":
        assert n == 1 << 18


def _recorded_means(monkeypatch):
    """Patch _circle_means to record each call's (n, shift, returned sums)."""
    import qgraph.walks as walks_mod

    calls = []
    real = walks_mod._circle_means

    def means(polys, n, shift):
        sums = real(polys, n, shift)
        calls.append((n, shift, sums))
        return sums

    monkeypatch.setattr(walks_mod, "_circle_means", means)
    return calls


def test_complex_forms_visit_every_chunk_and_real_forms_half(monkeypatch):
    # a phase on the numerator leaves |T| and so both means unchanged, but
    # makes the form complex: no conjugate pairs, every chunk is evaluated
    import qgraph.walks as walks_mod

    real_amp = qg.extract_rational_amplitude(qg.make_cycle_graph(31))
    complex_amp = qg.RationalAmplitude(real_amp.num * np.exp(0.3j), real_amp.den)
    assert real_amp.num.dtype == np.float64 and complex_amp.num.dtype == np.complex128
    runs = []
    for amp in (real_amp, complex_amp):
        visits = []
        with monkeypatch.context() as patch:
            nodes = walks_mod._on_rotated_nodes
            patch.setattr(walks_mod, "_on_rotated_nodes",
                          lambda polys, m, phase: visits.append(m) or nodes(polys, m, phase))
            calls = _recorded_means(patch)
            runs.append((qg.walk_stats_by_quadrature(amp), calls, visits))
    (real_stats, real_calls, real_visits), (complex_stats, complex_calls, complex_visits) = runs
    assert [c[:2] for c in real_calls] == [c[:2] for c in complex_calls]
    chunks = [(max(1, n // walks_mod.QUADRATURE_CHUNK), shift) for n, shift, _ in real_calls]
    assert len(complex_visits) == sum(c for c, _ in chunks)
    assert len(real_visits) == sum(len({min(r, (-r - shift) % c) for r in range(c)})
                                   for c, shift in chunks)
    assert len(real_visits) < 0.51 * len(complex_visits)
    for (_, _, a), (_, _, b) in zip(real_calls, complex_calls):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    assert abs(real_stats.p_out - complex_stats.p_out) <= 1e-13
    assert abs(real_stats.hitting_time - complex_stats.hitting_time) <= 1e-11


def _planted_means(kick, calls):
    """A fake _circle_means: every refinement moves both means by ``kick``
    times QUADRATURE_TOL relative."""
    import qgraph.walks as walks_mod

    rule = np.array([0.5, 1.0])

    def means(polys, n, shift):
        nonlocal rule
        calls.append(n)
        if shift == 0:
            return rule
        new = rule * (1.0 + 2.0 * kick * walks_mod.QUADRATURE_TOL)
        rule = 0.5 * (rule + new)
        return new

    return means


@pytest.mark.parametrize("den, last", [([1.0, -1.0 / 1.001], 32768), ([1.0], 512)],
                         ids=["pole", "polynomial"])
def test_quadrature_settles_on_its_pole_decay_and_no_sooner(den, last, monkeypatch):
    # deltas just under QUADRATURE_TOL settle at the first n with
    # rho^-n < QUADRATURE_TOL (rho = 1.001: 1.001^-16384 = 7.7e-8, but
    # 1.001^-32768 = 5.9e-15), a polynomial at once; just over it, the rule
    # doubles to the cap and refuses
    import qgraph.walks as walks_mod

    amp = qg.RationalAmplitude([0.0, 0.6], den)
    calls = []
    monkeypatch.setattr(walks_mod, "_circle_means", _planted_means(0.99, calls))
    qg.walk_stats_by_quadrature(amp)
    assert calls == [512] + [n for n in (512 << j for j in range(11)) if n <= last]
    calls.clear()
    monkeypatch.setattr(walks_mod, "_circle_means", _planted_means(1.01, calls))
    with pytest.raises(ArithmeticError, match="did not converge"):
        qg.walk_stats_by_quadrature(amp)
    assert calls[-1] == walks_mod.QUADRATURE_MAX_NODES // 2


def test_long_chain_quadrature_settles_off_the_exact_route():
    # c3x6's quadrature settles before its cap with h about 6e-7 off
    # walk_stats_exact, and more nodes do not bring it closer (2^18 nodes
    # are 8e-7 off): the route check, not the quadrature, has to refuse it
    import qgraph.walks as walks_mod

    graph = qg.compose_series(qg.parse_series_shorthand("-".join(["c3"] * 6)))
    calls = []
    real = walks_mod._circle_means
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walks_mod, "_circle_means",
                      lambda polys, n, shift: calls.append(n) or real(polys, n, shift))
        stats = qg.walk_stats_by_quadrature(qg.extract_rational_amplitude(graph))
    assert calls[-1] < walks_mod.QUADRATURE_MAX_NODES // 2
    assert abs(stats.hitting_time - qg.walk_stats_exact(graph).hitting_time) > 1e-8


@pytest.mark.parametrize(
    "n, exact_h",
    [(64, 52.37140053361426), (80, 65.76025491567879), (99, 82.2515279914363)],
)
def test_exact_route_answers_slow_rings(n, exact_h):
    stats = qg.walk_stats_exact(qg.make_cycle_graph(n))
    assert abs(stats.hitting_time - exact_h) < 1e-9
    assert abs(stats.p_out - 0.42229123600) < 1e-12
    assert stats.p_of_m.size == 0


@pytest.mark.parametrize("source", ["c3", "c4", "c3-c4-c3", "c3+c4+c3", "shared-c3"])
def test_exact_route_agrees_with_series(source):
    if source == "shared-c3":
        bare = qg.strip_leads(qg.make_cycle_graph(3))
        graph = qg.attach_lead(qg.attach_lead(bare, 1), 1)
    else:
        graph = qg.compose_series(qg.parse_series_shorthand(source))
    exact = qg.walk_stats_exact(graph)
    series = qg.walk_stats_to_tolerance(qg.extract_rational_amplitude(graph))
    assert abs(exact.hitting_time - series.hitting_time) < 1e-9
    assert abs(exact.p_out - series.p_out) < 1e-12


@pytest.mark.parametrize("source", [
    "c3-c6-c3-c3", "c3-c3-c3-c3", "c4-c4-c4-c4", "c3-c3-c6-c3", "c6-c3-c3-c3",
    "c3-c6-c6-c6", "c6-c6-c6-c6", "c4+c5+c4+c5", "c3-c3-c6-c6",
])
def test_series_route_agrees_with_exact_route_near_the_circle(source):
    # poles within about 1e-3 of the unit circle need series orders of
    # 8192-32768, where the recurrence's rounding must stay below the
    # tolerance
    graph = qg.compose_series(qg.parse_series_shorthand(source))
    series = qg.walk_stats_to_tolerance(qg.extract_rational_amplitude(graph))
    exact = qg.walk_stats_exact(graph)
    assert abs(series.hitting_time - exact.hitting_time) < 1e-8
    assert abs(series.p_out - exact.p_out) < 1e-8


@pytest.mark.parametrize("source", ["c5-c3-c3-c5", "c60", "c99"])
def test_exact_route_conserves_flux(source):
    # transmitted and reflected walks, direct terms included, carry all the flux
    graph = qg.compose_series(qg.parse_series_shorthand(source)) if "-" in source \
        else qg.make_cycle_graph(int(source[1:]))
    system, h, rows = _reduce(graph)
    p_t = _gramian_stats(h, rows[0], 1e-8).p_out
    p_r = _gramian_stats(h, rows[1], 1e-8).p_out
    total = p_t + p_r + abs(system.direct_t) ** 2 + abs(system.direct_r) ** 2
    assert abs(total - 1.0) < 1e-13


@pytest.mark.parametrize("source, bonds, k, exact_h, exact_p_out", [
    ("c3-c3-c3-c3-c3-c3-c3-c3", 62, 47, 44.38182962110597, 0.31723698015094326),
    ("c4-c4-c4-c4-c4-c4-c4-c4", 78, 62, 48.868605137317324, 0.37568865033383364),
], ids=["c3x8", "c4x8"])
def test_coupling_projector_drops_every_trapped_mode_of_long_chains(
        source, bonds, k, exact_h, exact_p_out):
    # eight-cycle chains trap 15 (c3) and 16 (c4) bond modes, some of them
    # behind a Krylov subdiagonal of only 1e-4; the references are 400 000
    # steps of power iteration on the subdivided bond map, summed in float64
    graph = qg.compose_series(qg.parse_series_shorthand(source))
    system, h, rows = _reduce(graph)
    assert system.bond_count == bonds and h.shape == (k, k)
    assert len(qg.extract_rational_amplitude(graph).den) == k + 1
    stats = qg.walk_stats_exact(graph)
    assert abs(stats.hitting_time - exact_h) < 1e-9
    assert abs(stats.p_out - exact_p_out) < 1e-12


@pytest.mark.parametrize("source", ["c3", "c5-c6"])
def test_exact_route_remainder_bound_holds(source, monkeypatch):
    # stopping the squarings early leaves a remainder; whatever the bound
    # lets through must be within the tolerance of the full sums
    import qgraph.walks as walks_mod

    graph = qg.compose_series(qg.parse_series_shorthand(source))
    exact = qg.walk_stats_exact(graph)
    answered = 0
    for stop in (1e-2, 1e-3, 1e-6):
        monkeypatch.setattr(walks_mod, "GRAMIAN_STOP", stop)
        for tolerance in (1e-1, 1e-3, 1e-6):
            try:
                stats = qg.walk_stats_exact(graph, tolerance)
            except qg.TruncationError:
                continue
            answered += abs(stats.hitting_time - exact.hitting_time) > 1e-12
            assert abs(stats.hitting_time - exact.hitting_time) <= tolerance
            assert abs(stats.p_out - exact.p_out) <= tolerance
    assert answered


def test_exact_route_counts_rounding_near_the_unit_circle():
    # one mode 1e-10 inside the circle: h = 1/(1 - lam^2) ~ 5.0e9, where
    # rounding in the Gramian sums alone moves h by about 40
    lam = np.exp(-1e-10)
    h = np.array([[lam + 0.0j]])
    row = np.array([np.sqrt(0.5 * (1.0 - lam**2)) + 0.0j])
    with pytest.raises(qg.TruncationError, match="remainder"):
        _gramian_stats(h, row, 1e-8)


def test_exact_route_refusals():
    c3 = qg.make_cycle_graph(3)
    for tolerance in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            qg.walk_stats_exact(c3, tolerance)
    # remainder bound above the tolerance
    with pytest.raises(qg.TruncationError, match="remainder"):
        qg.walk_stats_exact(c3, 1e-300)
    # a mode on the unit circle never decays
    with pytest.raises(qg.TruncationError, match="after 64 squarings"):
        _gramian_stats(np.array([[1.0 + 0.0j]]), np.array([0.5 + 0.0j]), 1e-8)
    edgeless = qg.QuantumGraph(vertex_ids=(1,), boundary=(qg.NK,), edges=(), leads=(1, 1))
    with pytest.raises(ValueError, match="no transmitted weight"):
        qg.walk_stats_exact(edgeless)
    with pytest.raises(ValueError, match="non-integral length"):
        qg.walk_stats_exact(qg.scale_lengths(c3, 1.5))
