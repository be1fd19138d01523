"""Bond-system scattering solver: anchors, invariants, singular limits."""

import gc
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import qgraph as qg


def test_triangle_quarter_turn_anchor():
    res = qg.scattering_matrix(qg.make_cycle_graph(3), np.pi / 2.0)
    assert abs(res.t_global - (-0.5 + 0.5j)) < 1e-12
    assert abs(res.t2 - 0.5) < 1e-12
    assert abs(res.t2 + res.r2 - 1.0) < 1e-12


def test_square_quarter_turn_suppression():
    res = qg.scattering_matrix(qg.make_cycle_graph(4), np.pi / 2.0)
    assert res.t2 < 1e-12
    assert abs(res.r2 - 1.0) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_unitarity_at_random_wavenumbers(n):
    rng = np.random.default_rng(1234 + n)
    kl = rng.uniform(1e-3, 2.0 * np.pi - 1e-3, size=250)
    t, r = qg.solve_many(qg.make_cycle_graph(n), kl)
    defect = np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)
    assert np.max(defect) < 1e-10


def test_unitarity_for_compositions():
    rng = np.random.default_rng(99)
    kl = rng.uniform(1e-3, 2.0 * np.pi - 1e-3, size=250)
    for text in ("c3-c3", "c4-c4", "c3-c4-c3", "c3+c4"):
        graph = qg.compose_series(qg.parse_series_shorthand(text))
        t, r = qg.solve_many(graph, kl)
        defect = np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)
        assert np.max(defect) < 1e-10


def test_transmission_is_reciprocal():
    graph = qg.compose_series(qg.parse_series_shorthand("c3-c4"))
    swapped = replace(graph, leads=(graph.leads[1], graph.leads[0]))
    kl = np.linspace(0.05, 6.2, 400)
    t_fwd, _ = qg.solve_many(graph, kl)
    t_bwd, _ = qg.solve_many(swapped, kl)
    assert np.max(np.abs(np.abs(t_fwd) ** 2 - np.abs(t_bwd) ** 2)) < 1e-12


def test_solve_many_matches_pointwise_calls():
    graph = qg.make_cycle_graph(5)
    kl = np.linspace(0.3, 5.9, 37)
    t_batch, r_batch = qg.solve_many(graph, kl)
    for i in (0, 17, 36):
        res = qg.scattering_matrix(graph, kl[i])
        assert abs(t_batch[i] - res.t_global) < 1e-14
        assert abs(r_batch[i] - res.r_global) < 1e-14


@pytest.mark.parametrize("text", ["c3", "c3+c3", "c3-c3", "c4-c4"])
def test_a_points_amplitudes_do_not_depend_on_its_batch(text):
    # 6, 12, 14 and 18 bonds: a point solved alone, in the whole grid or in
    # any piece of it gets the same (t, r) bit for bit
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    kl = np.linspace(0.05, 6.2, 601)
    t, r = qg.solve_many(graph, kl)
    for i, x in enumerate(kl):
        res = qg.scattering_matrix(graph, x)
        assert (t[i], r[i]) == (res.t_global, res.r_global)
    for cuts in ([1, 2, 3, 300], [7, 64, 65, 599], list(range(5, 600, 97))):
        pieces = [qg.solve_many(graph, part) for part in np.split(kl, cuts)]
        assert np.array_equal(np.concatenate([p[0] for p in pieces]), t)
        assert np.array_equal(np.concatenate([p[1] for p in pieces]), r)


def test_solve_many_scalar_input():
    t, r = qg.solve_many(qg.make_cycle_graph(3), 1.7)
    assert np.isscalar(complex(t)) and abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12


def test_bond_system_layout_for_triangle():
    system = qg.assemble_bond_system(qg.make_cycle_graph(3))
    assert system.bond_count == 6
    assert np.all(system.lengths == 1.0)
    # entrance lead feeds the two ring directions with amplitude 2/3
    nonzero = np.sort(np.abs(system.inj[np.abs(system.inj) > 0]))
    assert nonzero.shape == (2,) and np.max(np.abs(nonzero - 2.0 / 3.0)) < 1e-15
    # leads sit on different vertices, so there is no zero-step transmission
    assert system.direct_t == 0.0
    assert abs(system.direct_r + 1.0 / 3.0) < 1e-15


def test_bond_system_layout_with_shared_lead_vertex_and_self_loop():
    # Vertex 1 carries edge 0's end 0 and both leads; vertex 2 carries edge
    # 0's end 1 and both ends of the self-loop edge 1.  Ports run over edge
    # ends in (edge, end) order, then leads; port (e, d) emits bond 2e+d and
    # absorbs bond 2e+1-d.  Both vertex matrices are custom and non-symmetric.
    rng = np.random.default_rng(7)
    a, b = (np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            for _ in range(2))
    assert not np.allclose(a, a.T) and not np.allclose(b, b.T)
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2),
        boundary=(a, b),
        edges=(qg.Edge(1, 2, 1.0), qg.Edge(2, 2, 2.0)),
        leads=(1, 1),
    )
    system = qg.assemble_bond_system(graph)
    smatrix = np.zeros((4, 4), dtype=complex)
    smatrix[0, 1] = a[0, 0]
    # vertex 2 ports: 0 emits 1 absorbs 0, 1 emits 2 absorbs 3, 2 emits 3 absorbs 2
    for row, b_out in enumerate((1, 2, 3)):
        for col, b_in in enumerate((0, 3, 2)):
            smatrix[b_out, b_in] = b[row, col]
    assert np.array_equal(system.smatrix, smatrix)
    assert np.array_equal(system.lengths, [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(system.inj, [a[0, 1], 0, 0, 0])
    assert np.array_equal(system.out_r, [0, a[1, 0], 0, 0])
    assert np.array_equal(system.out_t, [0, a[2, 0], 0, 0])
    assert system.direct_r == a[1, 1] and system.direct_t == a[2, 1]
    res = qg.scattering_matrix(graph, 1.3)
    assert abs(res.t2 + res.r2 - 1.0) < 1e-12


def test_solve_many_is_bit_identical_across_worker_counts(monkeypatch):
    import qgraph.solver as solver_mod

    graph = qg.scale_lengths(qg.compose_series(qg.parse_series_shorthand("c3-c4-c3")), 1.3)
    kl = np.linspace(0.01, 6.2, 10_000)
    step = solver_mod._BATCH_ELEMENTS // (2 * graph.num_edges) ** 2
    assert len(kl) > 2 * step  # at least three batches
    clean = solver_mod._solve_bonds
    threads = set()

    def spy(system, kl):
        threads.add(threading.get_ident())
        return clean(system, kl)

    monkeypatch.setattr(solver_mod, "_solve_bonds", spy)
    results = []
    for cores in (1, 4):
        monkeypatch.setattr(solver_mod, "_usable_cores", lambda n=cores: n)
        threads.clear()
        results.append(qg.solve_many(graph, kl))
        assert (threads == {threading.get_ident()}) == (cores == 1)
    (t1, r1), (t4, r4) = results
    assert np.array_equal(t1, t4) and np.array_equal(r1, r4)
    # a grid of one batch runs inline, whatever the core count
    threads.clear()
    qg.scattering_matrix(graph, 1.7)
    assert threads == {threading.get_ident()}


def test_assemble_requires_two_leads():
    with pytest.raises(ValueError):
        qg.assemble_bond_system(qg.strip_leads(qg.make_cycle_graph(3)))


def test_invalid_graph_raises_on_every_call():
    # assembly is memoized on the graph, but a failed validation is not
    graph = qg.make_cycle_graph(3)
    bad = replace(graph, edges=(qg.Edge(1, 2, -1.0),) + graph.edges[1:])
    for _ in range(2):
        with pytest.raises(ValueError, match="non-positive length"):
            qg.scattering_matrix(bad, 1.0)


def _c3_c4():
    return qg.compose_series(qg.parse_series_shorthand("c3-c4"))


def _every_cached_route(graph):
    qg.walk_stats_exact(graph)
    qg.extract_rational_amplitude(graph, "transmission")
    qg.extract_rational_amplitude(graph, "reflection")
    qg.sweep_transmission(graph, 0.1, 3.0, 600)  # past 106 points: rational route
    qg.solve_many(graph, np.linspace(0.1, 3.0, 7))


@pytest.mark.parametrize("text", ["c3", "c3-c4-c3", "c3+c3"])
def test_real_vertices_keep_the_system_and_forms_real(text):
    # NK presets and compositions: float64 bond arrays, reduction and forms
    from qgraph.solver import _reduce

    graph = qg.compose_series(qg.parse_series_shorthand(text)) if len(text) > 2 \
        else qg.make_cycle_graph(3)
    system = qg.assemble_bond_system(graph)
    for arr in (system.smatrix, system.inj, system.out_t, system.out_r):
        assert arr.dtype == np.float64
    assert type(system.direct_t) is float and type(system.direct_r) is float
    _, h, rows = _reduce(graph)
    assert h.dtype == rows.dtype == np.float64
    for channel in ("transmission", "reflection"):
        amp = qg.extract_rational_amplitude(graph, channel)
        assert amp.num.dtype == amp.den.dtype == np.float64


def test_a_complex_vertex_keeps_everything_complex():
    # one degree-2 vertex of c3 that passes the wave with a phase
    from qgraph.solver import _reduce

    c3 = qg.make_cycle_graph(3)
    phased = np.exp(0.4j) * np.array([[0.0, 1.0], [1.0, 0.0]])
    graph = qg.QuantumGraph(vertex_ids=c3.vertex_ids, boundary=(qg.NK, qg.NK, phased),
                            edges=c3.edges, leads=c3.leads)
    system = qg.assemble_bond_system(graph)
    for arr in (system.smatrix, system.inj, system.out_t, system.out_r):
        assert arr.dtype == np.complex128
    _, h, rows = _reduce(graph)
    assert h.dtype == rows.dtype == np.complex128
    amp = qg.extract_rational_amplitude(graph)
    assert amp.num.dtype == amp.den.dtype == np.complex128
    assert np.abs(amp.num.imag).max() > 0.1


def test_forms_are_stored_real_exactly_when_every_imaginary_part_is_zero():
    real = qg.RationalAmplitude(np.array([0.0, 0.5 + 0.0j]), [1.0 + 0.0j, -0.25])
    assert real.num.dtype == real.den.dtype == np.float64
    assert real.num.flags.c_contiguous and not real.num.flags.writeable
    for num, den in (([0.0, 0.5j], [1.0, -0.25]), ([0.0, 0.5], [1.0, -0.25 + 1e-300j])):
        amp = qg.RationalAmplitude(num, den)
        assert amp.num.dtype == amp.den.dtype == np.complex128


def test_derived_data_is_freed_with_its_graph():
    graph = _c3_c4()
    _every_cached_route(graph)
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


def test_reduction_runs_once_per_graph_object(monkeypatch):
    import qgraph.solver as solver_mod

    calls = []
    basis = solver_mod._coupled_basis
    monkeypatch.setattr(solver_mod, "_coupled_basis",
                        lambda smatrix: calls.append(1) or basis(smatrix))
    _every_cached_route(_c3_c4())
    assert len(calls) == 1
    _every_cached_route(_c3_c4())
    assert len(calls) == 2


def test_square_half_turn_is_a_removable_singularity():
    # numerator and denominator of the reduced form both vanish at kl = pi,
    # but the pivoted solve still recovers the finite limit T = -1
    graph = qg.make_cycle_graph(4)
    res = qg.scattering_matrix(graph, np.pi)
    assert abs(res.t2 - 1.0) < 1e-9
    assert abs(res.t_global + 1.0) < 1e-6
    limit = qg.scattering_limit(graph, np.pi)
    assert abs(limit.t_global - res.t_global) < 1e-9


def test_singular_solve_guard_and_fallback(monkeypatch):
    import qgraph.solver as solver_mod

    graph = qg.make_cycle_graph(4)
    clean = solver_mod._solve_bonds

    def poisoned(system, kl):
        out = clean(system, kl)
        out[np.asarray(kl) == np.pi] = np.nan
        return out

    monkeypatch.setattr(solver_mod, "_solve_bonds", poisoned)
    with pytest.raises(qg.ShellSingularityError) as info:
        qg.scattering_matrix(graph, np.pi)
    assert info.value.kl == np.pi
    # the fallback re-evaluates at kl +- 1e-9, away from the poisoned point
    res = qg.scattering_or_limit(graph, np.pi)
    assert abs(res.t2 - 1.0) < 1e-9


def test_scattering_or_limit_equals_plain_solve_away_from_singularities():
    graph = qg.make_cycle_graph(4)
    res = qg.scattering_matrix(graph, 2.2)
    fallback = qg.scattering_or_limit(graph, 2.2)
    assert res.t_global == fallback.t_global


def test_zero_and_decaying_wavenumbers_rejected():
    graph = qg.make_cycle_graph(3)
    with pytest.raises(ValueError):
        qg.scattering_matrix(graph, 0.0)
    with pytest.raises(ValueError):
        qg.scattering_matrix(graph, 1.0 - 1e-3j)


def test_complex_wavenumber_upper_half_plane():
    graph = qg.make_cycle_graph(3)
    res = qg.scattering_matrix(graph, 1.0 + 0.1j)
    assert np.isfinite(res.t_global)
    # decaying phases shrink every loop contribution, so |t| < 1 strictly
    assert abs(res.t_global) < 1.0


def test_green_function_factorizes_through_transmission():
    graph = qg.make_cycle_graph(3)
    kl = 1.3
    res = qg.scattering_matrix(graph, kl)
    for x_in, x_out in ((0.0, 0.0), (0.7, 1.1)):
        expected = res.t_global / (1j * kl) * np.exp(1j * kl * (x_in + x_out))
        assert abs(qg.green_function_value(graph, x_in, x_out, kl) - expected) < 1e-14
    with pytest.raises(ValueError):
        qg.green_function_value(graph, -0.1, 0.0, kl)
    with pytest.raises(ValueError):
        qg.green_function_value(graph, 0.0, 0.0, 0.0)


def test_extracted_triangle_amplitude_has_exact_rational_form():
    # lowest terms: the trapped mode's shared root at z = 1 is gone
    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(3))
    num9 = 9.0 * np.real(amp.num)
    den9 = 9.0 * np.real(amp.den)
    assert np.max(np.abs(num9 - [0, 4, 8, 8, 4])) < 1e-10
    assert np.max(np.abs(den9 - [9, 9, 8, 0, -1, -1])) < 1e-10
    assert np.max(np.abs(np.imag(amp.num))) < 1e-12


def test_extracted_square_amplitude_is_in_lowest_terms():
    # 4z(1 + z^2)^2 / (9 + 8z^2 - z^6): the flawed_reduced_amplitude(4)
    # fixture with its signs and misplaced term corrected
    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(4))
    num9 = 9.0 * np.real(amp.num)
    den9 = 9.0 * np.real(amp.den)
    assert np.max(np.abs(num9 - [0, 4, 0, 8, 0, 4])) < 1e-10
    assert np.max(np.abs(den9 - [9, 0, 8, 0, 0, 0, -1])) < 1e-10
    assert np.max(np.abs(np.imag(amp.num))) < 1e-12


def test_extracted_channels_share_a_denominator_and_conserve_flux():
    graph = qg.make_cycle_graph(4)
    t_amp = qg.extract_rational_amplitude(graph, channel="transmission")
    r_amp = qg.extract_rational_amplitude(graph, channel="reflection")
    assert np.max(np.abs(t_amp.den - r_amp.den)) < 1e-12
    for kl in np.linspace(0.02, 6.26, 500):
        t = qg.eval_amplitude(t_amp, kl)
        r = qg.eval_amplitude(r_amp, kl)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-10


@pytest.mark.parametrize(
    "text, margin",
    [("c3-c3", 1e-3), ("c4-c4", 1e-3), ("c3-c4-c3", 1e-3), ("c4-c4-c6-c6", 1e-4)],
)
def test_extracted_denominator_has_no_trapped_mode_roots(text, margin):
    # trapped modes would put roots on the unit circle; c4-c4-c6-c6 also has
    # an exit-end mode that the entrance wave reaches only at about 6e-8,
    # close enough to roundoff to confuse a Krylov rank test
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    t_amp = qg.extract_rational_amplitude(graph, channel="transmission")
    r_amp = qg.extract_rational_amplitude(graph, channel="reflection")
    assert np.min(np.abs(np.roots(t_amp.den[::-1]))) > 1.0 + margin
    assert np.max(np.abs(t_amp.den - r_amp.den)) < 1e-12


@pytest.mark.parametrize("text", ["c3-c3", "c4-c4", "c3-c4-c3"])
def test_extracted_amplitude_reproduces_solver(text):
    graph = qg.compose_series(qg.parse_series_shorthand(text))
    amp = qg.extract_rational_amplitude(graph)
    # kl = pi is where the chains' trapped modes sit on the energy shell
    kl = np.append(np.linspace(0.04, 6.24, 200), np.pi)
    t = np.array([qg.scattering_or_limit(graph, x).t_global for x in kl])
    closed = np.array([qg.eval_amplitude(amp, x) for x in kl])
    assert np.max(np.abs(t - closed)) < 1e-10


def _padded_gap(a, b):
    size = max(len(a), len(b))
    return np.max(np.abs(np.pad(a, (0, size - len(a))) - np.pad(b, (0, size - len(b)))))


@pytest.mark.parametrize("n", [3, 5, 12, 31, 48, 64, 80, 95, 97, 98, 99])
def test_extracted_forms_match_the_closed_cycle_forms(n):
    # small to large rings: the minor recurrence on the Hessenberg form
    # keeps the coefficients of the closed NK form to rounding, normalized
    # to den(0) = 1 like the extracted one
    amp = qg.extract_rational_amplitude(qg.make_cycle_graph(n))
    closed = qg.cycle_nk_amplitude(n)
    assert _padded_gap(amp.num, closed.num / closed.den[0]) < 2e-13
    assert _padded_gap(amp.den, closed.den / closed.den[0]) < 2e-13


def test_extraction_memory_grows_with_samples_times_order():
    # c60 reduces to order 118: the trailing-minor table is (k + 1)^2
    # complex numbers, 0.2 MB; the 40 squarings of the 120 x 120 bond map
    # and the Householder steps hold a few such matrices at a time
    import tracemalloc

    graph = qg.make_cycle_graph(60)
    tracemalloc.start()
    try:
        qg.extract_rational_amplitude(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_hessenberg_reduction_puts_the_injection_on_e1():
    # the second case injects into the first of two blocks, so its second
    # block is a mode the injection cannot reach: the reduction skips a
    # column that is already zero
    from qgraph.solver import _hessenberg

    rng = np.random.default_rng(7)
    for blocks in ((9,), (5, 4)):
        k = sum(blocks)
        smat = np.zeros((k, k), dtype=complex)
        lo = 0
        for size in blocks:
            smat[lo:lo + size, lo:lo + size] = (rng.normal(size=(size, size))
                                                + 1j * rng.normal(size=(size, size)))
            lo += size
        smat /= 1.25 * np.linalg.norm(smat, 2)
        inj = np.zeros(k, dtype=complex)
        inj[:blocks[0]] = rng.normal(size=blocks[0]) + 1j * rng.normal(size=blocks[0])
        outs = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
        h, rows = _hessenberg(smat, inj, outs)
        assert h.shape == (k, k) and rows.shape == (2, k)
        assert np.all(np.tril(h, -2) == 0)
        for z in (0.5, -0.3 + 0.6j, 0.9j):
            reduced = rows @ np.linalg.solve(np.eye(k) - z * h, np.eye(k)[0])
            direct = outs @ np.linalg.solve(np.eye(k) - z * smat, inj)
            assert np.max(np.abs(reduced - direct)) < 1e-13
        spectrum = np.linalg.eigvals(smat)
        assert all(np.min(np.abs(spectrum - lam)) < 1e-12 for lam in np.linalg.eigvals(h))
