"""Sweeps, symmetry checks, suppression bands, peak detection, exports."""

import csv
import io
import json

import numpy as np
import pytest

import qgraph as qg
from qgraph import analysis
from qgraph.analysis import peaks_to_json, sweep_to_csv
from qgraph.solver import SINGULAR_UNITARITY_TOL

TWO_PI = 2.0 * np.pi


def _peak_sweep(graph, resolution=2e-4):
    samples = int(round((TWO_PI - 0.02) / resolution)) + 1
    return qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, samples)


def test_sweep_grid_and_arrays():
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.5, 1.5, 101)
    assert sweep.kl.shape == (101,)
    assert abs(sweep.resolution - 0.01) < 1e-15
    assert np.max(sweep.t2 + sweep.r2 - 1.0) < 1e-10
    assert not sweep.t.flags.writeable


def test_sweep_stores_its_float_grid_and_derives_the_resolution():
    graph = qg.make_cycle_graph(3)
    sweep = analysis.Sweep(graph=graph, kl=[1, 2, 3], t=np.zeros(3), r=np.ones(3))
    assert sweep.kl.dtype == float and not sweep.kl.flags.writeable
    assert sweep.resolution == 1.0
    for t, r in ((np.zeros(2), np.ones(3)), (np.zeros(3), np.ones((3, 1)))):
        with pytest.raises(ValueError, match="shape"):
            analysis.Sweep(graph=graph, kl=[1.0, 2.0, 3.0], t=t, r=r)


def test_sweep_keeps_read_only_views_and_leaves_the_callers_arrays_writeable():
    kl, t, r = np.array([1.0, 2.0, 3.0]), np.zeros(3, dtype=complex), np.ones(3, dtype=complex)
    sweep = analysis.Sweep(graph=qg.make_cycle_graph(3), kl=kl, t=t, r=r)
    for given, kept in ((kl, sweep.kl), (t, sweep.t), (r, sweep.r)):
        assert given.flags.writeable and not kept.flags.writeable
        assert kept is not given and np.shares_memory(kept, given)  # a view, not a copy
    t[0] = 0.5
    assert sweep.t[0] == 0.5


def test_sweep_computes_t2_once_and_read_only():
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.5, 1.5, 101)
    assert sweep.t2 is sweep.t2
    assert not sweep.t2.flags.writeable
    assert np.array_equal(sweep.t2, np.abs(sweep.t) ** 2)


def test_sweep_rejects_bad_ranges():
    graph = qg.make_cycle_graph(3)
    with pytest.raises(ValueError):
        qg.sweep_transmission(graph, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        qg.sweep_transmission(graph, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        qg.sweep_transmission(graph, 0.5, 1.0, 1)
    with pytest.raises(ValueError):
        qg.sweep_transmission(graph, 0.5, np.inf, 10)


def test_sweep_covers_removable_points():
    # kl = pi sits on this grid; the square's 0/0 point must come out as the
    # finite limit, not a spike
    sweep = qg.sweep_transmission(qg.make_cycle_graph(4), np.pi - 0.5, np.pi + 0.5, 201)
    i = np.argmin(np.abs(sweep.kl - np.pi))
    assert abs(sweep.kl[i] - np.pi) < 1e-12
    assert abs(sweep.t2[i] - 1.0) < 1e-9


@pytest.mark.parametrize("text", ["c3-c3", "c4-c4", "c3-c4-c3"])
def test_rational_route_sweep_matches_solver(text, monkeypatch):
    # the full 62633-point grid of qgraph peaks, with the solver's reference
    # repaired at its singular points by the limit policy
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    samples = int(round((TWO_PI - 0.02) / 1e-4)) + 1
    grid = np.linspace(0.01, TWO_PI - 0.01, samples)
    t_ref, r_ref = qg.solve_many(graph, grid)
    defect = np.abs(np.abs(t_ref) ** 2 + np.abs(r_ref) ** 2 - 1.0)
    flagged = ~np.isfinite(t_ref) | (defect > SINGULAR_UNITARITY_TOL)
    for i in np.nonzero(flagged)[0]:
        t_ref[i] = qg.scattering_or_limit(graph, grid[i]).t_global

    def no_solver(*args):
        raise AssertionError("a rational-route sweep called the dense solver")

    monkeypatch.setattr("qgraph.solver.solve_many", no_solver)
    sweep = qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, samples)
    assert np.array_equal(sweep.kl, grid)
    assert np.max(np.abs(sweep.t2 - np.abs(t_ref) ** 2)) < 1e-10
    assert np.max(np.abs(sweep.t2 + sweep.r2 - 1.0)) < 1e-10


@pytest.mark.parametrize(
    "text, scale, samples",
    [("c3-c4", 1.3, 5000), ("c3-c4", 1.0 + 1e-10, 5000),
     ("c3-c4", 1.0, 105), ("c3-c3", 1.0, 117)],
)
def test_solver_route_sweep_is_exactly_solve_many(text, scale, samples):
    # non-integer lengths (even within integral_lengths' rounding tolerance),
    # and integer sweeps one point too short to pay for an extraction, keep
    # the dense solver's arrays bit for bit
    graph = qg.scale_lengths(qg.compose_series(qg.parse_series_shorthand(text)), scale)
    sweep = qg.sweep_transmission(graph, 0.1, 6.2, samples)
    t, r = qg.solve_many(graph, sweep.kl)
    assert np.array_equal(sweep.t, t)
    assert np.array_equal(sweep.r, r)


@pytest.mark.parametrize("text, samples", [("c3-c4", 106), ("c36", 1500)])
def test_rational_route_starts_at_the_extraction_cost(text, samples, monkeypatch):
    # the shortest c3-c4 grid that pays for an extraction, and a c36 sweep
    # whose dense solves cost several times the extraction, take the forms
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    grid = np.linspace(0.1, 6.2, samples)
    t_ref, r_ref = qg.solve_many(graph, grid)

    def no_solver(*args):
        raise AssertionError("a rational-route sweep called the dense solver")

    monkeypatch.setattr("qgraph.solver.solve_many", no_solver)
    sweep = qg.sweep_transmission(graph, 0.1, 6.2, samples)
    assert np.max(np.abs(sweep.t - t_ref)) < 1e-10
    assert np.max(np.abs(sweep.r - r_ref)) < 1e-10


@pytest.mark.parametrize("samples", [108, 109])
def test_a_complex_chain_switches_at_its_own_extraction_cost(samples, monkeypatch):
    # c3-c4 with every vertex matrix turned by one unit phase has a complex
    # bond map, whose extraction costs 190 + 38 k + 0.0105 k^3: 109 points
    # pay for it (106 on the real map)
    import qgraph.solver as solver_mod

    chain = qg.compose_series(qg.parse_series_shorthand("c3-c4"))
    graph = qg.QuantumGraph(
        vertex_ids=chain.vertex_ids,
        boundary=tuple(np.exp(0.7j) * chain.vertex_matrix(v) for v in chain.vertex_ids),
        edges=chain.edges, leads=chain.leads)
    assert np.iscomplexobj(qg.assemble_bond_system(graph).smatrix)
    calls = []
    horner = solver_mod._horner_sweep
    monkeypatch.setattr(solver_mod, "_horner_sweep",
                        lambda *args: calls.append(1) or horner(*args))
    sweep = qg.sweep_transmission(graph, 0.1, 6.2, samples)
    assert bool(calls) == (samples == 109)
    t, _ = qg.solve_many(graph, sweep.kl)
    assert np.max(np.abs(sweep.t - t)) < 1e-10


def test_rational_route_sweep_of_a_long_chain_matches_the_solver(monkeypatch):
    # On six chained triangles Horner's rule on the forms' coefficients
    # loses digits (t off by 3e-7 where its rounding bound is not checked);
    # the points whose bound exceeds HORNER_TOL are solved instead.
    import qgraph.solver as solver_mod

    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3-c3-c3-c3-c3"))
    forms, used = solver_mod._extract_channels, []

    def recording(graph):
        used.append(graph)
        return forms(graph)

    monkeypatch.setattr(solver_mod, "_extract_channels", recording)
    sweep = qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, 4001)
    t, r = qg.solve_many(graph, sweep.kl)
    regular = ~solver_mod._singular(sweep.kl, t, r)
    assert used and regular.sum() > 3900
    assert np.max(np.abs(sweep.t - t)[regular]) < 1e-9
    assert np.max(np.abs(sweep.r - r)[regular]) < 1e-9


@pytest.mark.parametrize("text", ["c3-c3", "c4-c4", "c3-c4-c3"])
def test_peak_heights_are_solver_evaluations(text):
    # the grid only seeds refinement; centers and heights come from the solver
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    peaks = qg.detect_peaks(_peak_sweep(graph, resolution=1e-4))
    assert peaks
    for p in peaks:
        assert p.height == qg.scattering_or_limit(graph, p.center).t2


def _one_point_at_a_time(graph, searches):
    # the scalar reference for `_lockstep`: each search alone, each
    # point through the public singular-point policy
    results = []
    for search in searches:
        ask = next(search)
        try:
            while True:
                ask = search.send([qg.scattering_or_limit(graph, x).t2 for x in ask])
        except StopIteration as done:
            results.append(done.value)
    return results


@pytest.mark.parametrize(
    "text, scale",
    [("c3-c3", 1.0), ("c4-c4", 1.0), ("c3-c4-c3", 1.0), ("c3-c4-c3", 1.3)],
)
def test_lockstep_refinement_equals_scalar_refinement(text, scale, monkeypatch):
    graph = qg.scale_lengths(qg.compose_series(qg.parse_series_shorthand(text)), scale)
    sweep = _peak_sweep(graph)
    batched = qg.detect_peaks(sweep)
    monkeypatch.setattr(analysis, "_lockstep", _one_point_at_a_time)
    scalar = qg.detect_peaks(sweep)
    assert batched and batched == scalar


@pytest.mark.parametrize("min_height", [0.99, 0.005])
def test_peak_seeds_match_a_loop_over_the_grid(min_height, monkeypatch):
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c4-c3"))
    sweep = _peak_sweep(graph)
    kl, t2 = sweep.kl, sweep.t2
    expected = [
        (kl[i - 1], kl[i + 1])
        for lo, hi in qg.detect_suppression_bands(sweep)
        for i in np.nonzero((kl >= lo) & (kl <= hi))[0]
        if 0 < i < len(kl) - 1 and t2[i] > t2[i - 1] and t2[i] >= t2[i + 1]
        and not t2[i] < 0.5 * min_height
    ]
    brackets = []
    golden = analysis._golden_max

    def recording(a, b):
        brackets.append((a, b))
        return golden(a, b)

    monkeypatch.setattr(analysis, "_golden_max", recording)
    qg.detect_peaks(sweep, min_height)
    assert brackets == expected and len(expected) >= 4


def test_peak_refinement_batches_its_solves(monkeypatch):
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c4-c3"))
    sweep = _peak_sweep(graph, resolution=1e-4)
    calls = []
    counted = qg.solve_many

    def counting(graph, kl):
        calls.append(len(np.atleast_1d(kl)))
        return counted(graph, kl)

    monkeypatch.setattr("qgraph.solver.solve_many", counting)
    monkeypatch.setattr(analysis, "solve_many", counting)
    assert len(qg.detect_peaks(sweep)) == 4
    assert len(calls) <= 120


def _bracket_by_loop(kl, t2, center, half, side):
    # the first grid point past center at or below half, or the end of the
    # grid, and the grid point before it or center, as a plain loop
    order = range(len(kl)) if side > 0 else range(len(kl) - 1, -1, -1)
    past = [j for j in order if side * (kl[j] - center) > 0]
    inside = center
    for j in past:
        if t2[j] <= half or j == past[-1]:
            return inside, float(kl[j])
        inside = float(kl[j])


def _recorded_brackets(monkeypatch, sweep, min_height=0.99):
    # peaks, and every crossing search's starting bracket with its ask count
    brackets = []
    bisect = analysis._half_crossing

    def recording(inside, outside, half):
        record = [inside, outside, half, 0]
        brackets.append(record)
        search = bisect(inside, outside, half)
        ask = next(search)
        try:
            while True:
                record[3] += 1
                ask = search.send((yield ask))
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(analysis, "_half_crossing", recording)
    return qg.detect_peaks(sweep, min_height), brackets


@pytest.mark.parametrize("text", ["c3-c3", "c4-c4", "c3-c4-c3"])
def test_crossings_are_bracketed_by_the_grid(text, monkeypatch):
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    sweep = _peak_sweep(graph, resolution=1e-4)
    peaks, brackets = _recorded_brackets(monkeypatch, sweep)
    expected = [
        [*_bracket_by_loop(sweep.kl, sweep.t2, p.center, 0.5 * p.height, side), 0.5 * p.height]
        for p in peaks for side in (-1, 1)
    ]
    assert peaks and [b[:3] for b in brackets] == expected
    # only the last grid step is bisected, to REFINE_TOL: 17 rounds at most
    assert max(b[3] for b in brackets) <= 17


@pytest.mark.parametrize("offset", [0.0, -0.25])
def test_crossing_brackets_at_a_grid_center_and_past_the_grid_end(offset, monkeypatch):
    # A bump of 0.012 between a 0.001 floor on its left and 0.008 up to the
    # end of the grid on its right, all one band.  Its center is put on its
    # grid point or a quarter step left of it; either way the left crossing
    # lies in the step next to the center, and half the height, 0.006, is
    # never reached on the right.
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    kl = np.linspace(2.0, 2.4, 201)
    t2 = np.r_[np.full(100, 0.001), 0.012, np.full(100, 0.008)]
    sweep = analysis.Sweep(graph=graph, kl=kl, t=np.sqrt(t2), r=np.sqrt(1.0 - t2))
    center = float(kl[100] + offset * sweep.resolution)

    def fixed(a, b):
        yield (center,)
        return center, float(t2[100])

    monkeypatch.setattr(analysis, "_golden_max", fixed)
    peaks, brackets = _recorded_brackets(monkeypatch, sweep, min_height=0.01)
    assert [p.center for p in peaks] == [center]
    assert [b[:2] for b in brackets] == [[center, kl[99]], [kl[199], kl[200]]]


def test_batched_refinement_applies_the_singular_point_policy(monkeypatch):
    # c4's 0/0 point kl = pi among regular points in one batch.  The pivoted
    # solve happens to recover it, so, as in the solver's own guard test, it
    # is poisoned to non-finite; another point is made visibly non-unitary.
    import qgraph.solver as solver_mod

    graph = qg.make_cycle_graph(4)
    points = (1.0, np.pi, 2.5, 3.0, np.pi, 4.0)
    clean = solver_mod._solve_bonds

    def poisoned(system, kl):
        out = clean(system, kl)
        out[np.asarray(kl) == np.pi] = np.nan
        out[np.asarray(kl) == 2.5] *= 1.01
        return out

    monkeypatch.setattr(solver_mod, "_solve_bonds", poisoned)
    t, r = qg.solve_many(graph, np.array(points))
    assert np.isnan(t[1]) and abs(t[2]) ** 2 + abs(r[2]) ** 2 - 1.0 > SINGULAR_UNITARITY_TOL

    def probe():
        return (yield points)

    (values,) = analysis._lockstep(graph, [probe()])
    assert values == [qg.scattering_or_limit(graph, x).t2 for x in points]
    assert abs(values[1] - 1.0) < 1e-9


def _poison_near(monkeypatch, center, width):
    # every solve within width of center comes back non-finite
    import qgraph.solver as solver_mod

    clean = solver_mod._solve_bonds

    def poisoned(system, kl):
        out = clean(system, kl)
        out[np.abs(kl - center) < width] = np.nan
        return out

    monkeypatch.setattr(solver_mod, "_solve_bonds", poisoned)


@pytest.mark.parametrize("samples", [11, 191])
def test_a_singular_limit_propagates_from_a_sweep(samples, monkeypatch):
    # 11 points take the solver route, 191 the rational route (the fewest
    # that pay for the extraction; an odd count keeps kl = 1.5 on the
    # grid).  Doubling the transmission numerator makes every rational value
    # fail the unitarity test, so each point must go to the solver.
    import qgraph.solver as solver_mod

    graph = qg.make_cycle_graph(3)
    forms, used = solver_mod._extract_channels, []

    def doubled(graph):
        t_amp, r_amp = forms(graph)
        used.append(graph)
        return qg.RationalAmplitude(2 * t_amp.num, t_amp.den), r_amp

    monkeypatch.setattr(solver_mod, "_extract_channels", doubled)
    t, r = qg.solve_many(graph, np.linspace(1.0, 2.0, samples))
    sweep = qg.sweep_transmission(graph, 1.0, 2.0, samples)
    assert bool(used) == (samples == 191)
    assert np.array_equal(sweep.t, t) and np.array_equal(sweep.r, r)

    _poison_near(monkeypatch, 1.5, 1e-8)  # kl = 1.5 and 1.5 +- 1e-9
    with pytest.raises(qg.ShellSingularityError):
        qg.sweep_transmission(graph, 1.0, 2.0, samples)


def test_a_singular_limit_propagates_from_peak_refinement(monkeypatch):
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    sweep = _peak_sweep(graph)
    center = qg.detect_peaks(sweep)[0].center
    _poison_near(monkeypatch, center, 1e-3)  # the whole golden-section bracket
    with pytest.raises(qg.ShellSingularityError):
        qg.detect_peaks(sweep)


@pytest.mark.parametrize("source", ["c3", "c4", "c3-c3"])
def test_transmission_is_symmetric_about_pi(source):
    if "-" in source:
        graph = qg.compose_series(qg.parse_series_shorthand(source))
    else:
        graph = qg.make_cycle_graph(int(source[1:]))
    sweep = qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, 2000)
    assert qg.check_reflection_symmetry(sweep) < 1e-10


def test_symmetry_check_requires_a_symmetric_grid():
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.5, 1.5, 100)
    with pytest.raises(ValueError, match="symmetric"):
        qg.check_reflection_symmetry(sweep)


def test_triangle_suppression_bands():
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.01, TWO_PI - 0.01, 6283)
    bands = qg.detect_suppression_bands(sweep)
    expected = [(2.0708, 2.1207), (2.9452, 3.3380), (4.1625, 4.2124)]
    assert len(bands) == 3
    for (lo, hi), (elo, ehi) in zip(bands, expected):
        assert abs(lo - elo) < 5e-3 and abs(hi - ehi) < 5e-3


def test_chained_triangles_merge_into_one_wide_band():
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    sweep = qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, 6283)
    bands = qg.detect_suppression_bands(sweep)
    assert len(bands) == 1
    lo, hi = bands[0]
    assert abs(lo - 1.9872) < 5e-3 and abs(hi - 4.2960) < 5e-3
    # chaining widens suppression: the merged band dwarfs the single
    # triangle's central band
    assert hi - lo > 2.0


def _bands_by_loop(kl, t2, floor):
    # the scan as a plain loop over the grid, the reference for the array ops
    clusters, i = [], 0
    while i < len(t2):
        if t2[i] < floor:
            j = i
            while j + 1 < len(t2) and t2[j + 1] < floor:
                j += 1
            clusters.append([kl[i], kl[j], kl[j] - kl[i]])
            i = j + 1
        else:
            i += 1
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters) - 1):
            cur, nxt = clusters[i], clusters[i + 1]
            if nxt[0] - cur[1] < cur[2] + nxt[2]:
                clusters[i:i + 2] = [[cur[0], nxt[1], cur[2] + nxt[2]]]
                merged = True
                break
    return [(float(lo), float(hi)) for lo, hi, _ in clusters]


@pytest.mark.parametrize("seed", range(6))
def test_band_scan_matches_a_loop_over_the_grid(seed):
    # runs of every length, touching either end of the grid or not
    rng = np.random.default_rng(seed)
    kl = np.linspace(0.1, 6.1, 400)
    t2 = np.repeat(rng.uniform(0.0, 0.02, 80), rng.integers(1, 10, 80))[:400]
    t2 = np.pad(t2, (0, 400 - len(t2)), constant_values=seed % 2 * 0.005)
    sweep = analysis.Sweep(graph=qg.make_cycle_graph(3), kl=kl, t=np.sqrt(t2),
                           r=np.sqrt(1.0 - t2))
    for floor in (0.002, 0.01, 0.019):
        assert qg.detect_suppression_bands(sweep, floor) == _bands_by_loop(kl, sweep.t2, floor)


def test_lower_floor_bands_nest_inside_higher_floor_bands():
    for source in ("c3", "c3-c3"):
        if "-" in source:
            graph = qg.compose_series(qg.parse_series_shorthand(source))
        else:
            graph = qg.make_cycle_graph(3)
        sweep = qg.sweep_transmission(graph, 0.01, TWO_PI - 0.01, 6283)
        outer = qg.detect_suppression_bands(sweep, floor=0.01)
        inner = qg.detect_suppression_bands(sweep, floor=0.005)
        for lo, hi in inner:
            assert any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in outer)


def test_chained_triangle_peaks():
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    peaks = qg.detect_peaks(_peak_sweep(graph))
    assert len(peaks) == 2
    assert all(p.is_full_transmission for p in peaks)
    lo, hi = peaks
    assert abs(lo.center - 2.228643) < 1e-5
    assert abs(hi.center - 4.054542) < 1e-5
    assert abs(lo.width - 0.021206) < 1e-5
    # mirror pair about pi with matching widths
    assert abs((lo.center + hi.center) / 2.0 - np.pi) < 1e-6
    assert abs(lo.width - hi.width) < 1e-6
    # the enclosing band is reported with the peak
    assert lo.band[0] < lo.center < lo.band[1]


def test_peak_heights_hold_up_under_reevaluation():
    graph = qg.compose_series(qg.parse_series_shorthand("c4-c4"))
    peaks = qg.detect_peaks(_peak_sweep(graph, resolution=1e-4))
    assert len(peaks) == 4
    for p in peaks:
        res = qg.scattering_or_limit(graph, p.center)
        assert res.t2 >= 0.999


def test_plain_cycles_have_no_full_transmission_peaks():
    for n in (3, 4):
        peaks = qg.detect_peaks(_peak_sweep(qg.make_cycle_graph(n)))
        assert peaks == []


def test_peak_centers_stable_under_grid_refinement():
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    coarse = qg.detect_peaks(_peak_sweep(graph, resolution=2e-4))
    fine = qg.detect_peaks(_peak_sweep(graph, resolution=1e-4))
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.center - b.center) < 1e-6


def test_csv_round_trip():
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.5, 1.5, 11)
    text = sweep_to_csv(sweep)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["kl", "re_t", "im_t", "t2", "r2"]
    assert len(rows) == 12
    # 17 significant digits round-trip exactly
    for i, row in enumerate(rows[1:]):
        assert float(row[0]) == sweep.kl[i]
        assert float(row[1]) == sweep.t[i].real
        assert float(row[3]) == sweep.t2[i]


def test_peaks_json_schema():
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c3"))
    peaks = qg.detect_peaks(_peak_sweep(graph))
    data = json.loads(peaks_to_json(peaks))
    assert len(data) == 2
    for entry, peak in zip(data, peaks):
        assert set(entry) == {"center", "height", "fwhm", "band"}
        assert entry["center"] == peak.center
        assert entry["fwhm"] == peak.width
        assert entry["band"] == list(peak.band)


def test_export_files_written_atomically(tmp_path):
    sweep = qg.sweep_transmission(qg.make_cycle_graph(3), 0.5, 1.5, 11)
    csv_path = tmp_path / "sweep.csv"
    qg.write_sweep_csv(sweep, str(csv_path))
    assert csv_path.read_text() == sweep_to_csv(sweep)
    assert list(tmp_path.iterdir()) == [csv_path]

    peaks = qg.detect_peaks(_peak_sweep(qg.compose_series(qg.parse_series_shorthand("c3-c3"))))
    json_path = tmp_path / "peaks.json"
    qg.write_peaks_json(peaks, str(json_path))
    assert json.loads(json_path.read_text())
    assert sorted(tmp_path.iterdir()) == sorted([csv_path, json_path])
