"""Property tests on random series chains: extraction against the solver.

The extracted rational form drops every bond mode that its rank test finds
decoupled from the leads.  If that test ever dropped a mode a lead can see,
the form would disagree with the solver somewhere on the circle and the two
hitting-time routes would stop agreeing; random chains probe for both.

Many chains also hold weakly coupled modes whose genuine poles lie so close
to the unit circle (within 1e-6 on some four-cycle chains) that the walk
decays too slowly for the series route, and at times the quadrature, to
certify within its cap; a route then refuses with a numerical failure
rather than disagree.  The exact route, which sums the bond map's
Gramians, answers every chain, and every other route that answers agrees
with it.

Random small graphs also check the bond-system layout against a reference
that places each vertex's matrix one entry at a time, and, with integer
lengths, both channels' extracted forms against the solver, and the
blocked Horner pass of rational-route sweeps, bit for bit, against
whole-grid polyval.  Written to files and run with drawn flags, they hold
every subcommand to the exit-code contract of the command line.

The exact route's rounding charge is held against an extended-precision
power iteration on one chain, and against the same sums done in complex
arithmetic on gauge-transformed copies of drawn NK graphs.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings

import numpy as np
import pytest

import qgraph as qg
from qgraph.cli import main, resolve_graph
from qgraph.graphs import subdivide_integral
from qgraph.solver import _HORNER_BLOCK, _reduce
from qgraph.walks import _GRAMIAN_ROUNDING, GRAMIAN_STOP

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

chains = st.builds(
    qg.SeriesSpec,
    elements=st.lists(
        st.tuples(st.integers(3, 6), st.just(1)), min_size=2, max_size=4
    ).map(tuple),
    glue=st.sampled_from([qg.GLUE_CONNECTING_EDGE, qg.GLUE_VERTEX_MERGE]),
)


@hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=chains, seed=st.integers(0, 2**32 - 1))
def test_extracted_form_matches_solver_and_both_walk_routes_agree(spec, seed):
    graph = qg.compose_series(spec)
    amp = qg.extract_rational_amplitude(graph)

    kl = np.random.default_rng(seed).uniform(1e-3, 2.0 * np.pi - 1e-3, size=64)
    t, _ = qg.solve_many(graph, kl)
    closed = np.array([qg.eval_amplitude(amp, x) for x in kl])
    # Evaluating the monomial form loses digits where |den| is small next to
    # its coefficients, at sharp resonances; allow for that rounding error.
    den = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * kl), amp.den))
    tol = 1e-10 + 1e-13 * np.sum(np.abs(amp.den)) / den
    assert np.all(np.abs(np.abs(t) ** 2 - np.abs(closed) ** 2) < tol)

    # the exact route answers every chain; each other route that answers
    # agrees with it, and with the other one
    answers = [qg.walk_stats_exact(graph)]
    for route in (qg.walk_stats_to_tolerance, qg.walk_stats_by_quadrature):
        try:
            answers.append(route(amp))
        except ArithmeticError:
            # a refusal is right only when a genuine pole makes the decay slow
            assert np.min(np.abs(np.roots(amp.den[::-1]))) - 1.0 < 1e-3
    for a in answers:
        for b in answers:
            assert abs(a.hitting_time - b.hitting_time) < 1e-8
            assert abs(a.p_out - b.p_out) < 1e-8


@st.composite
def small_graphs(draw):
    """Connected graphs of 1-5 vertices with self-loops, multi-edges, both
    leads possibly on one vertex, NK vertices of any degree (1 included)
    and custom non-symmetric unitary vertices, some sharing one matrix."""
    n = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(1, 10)))[:n]
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges = []
    for a, b in pairs:
        if draw(st.booleans()):
            a, b = b, a
        edges.append(qg.Edge(ids[a], ids[b], draw(st.sampled_from([1.0, 2.0, 0.5, 1.25]))))
    leads = (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    degree = {v: 0 for v in ids}
    for v in [x for e in edges for x in (e.u, e.v)] + list(leads):
        degree[v] += 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = {}
    boundary = []
    for v in ids:
        if draw(st.booleans()):
            boundary.append(qg.NK)
            continue
        d = degree[v]
        if d not in shared or not draw(st.booleans()):
            q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            shared[d] = q * (np.diag(r) / np.abs(np.diag(r)))
        boundary.append(shared[d])
    return qg.QuantumGraph(vertex_ids=ids, boundary=tuple(boundary),
                           edges=tuple(edges), leads=leads)


def _reference_layout(graph):
    # one vertex, one entry at a time: ports are edge ends in (edge, end)
    # order, then leads in channel order; port (e, d) emits bond 2e+d and
    # absorbs bond 2e+1-d
    nb = 2 * graph.num_edges
    smatrix = np.zeros((nb, nb), dtype=complex)
    inj, out_t, out_r = (np.zeros(nb, dtype=complex) for _ in range(3))
    v_in, v_out = graph.leads
    for v in graph.vertex_ids:
        m = graph.vertex_matrix(v)
        ports = [2 * i + d for i, e in enumerate(graph.edges) for d in (0, 1)
                 if (e.u, e.v)[d] == v]
        k = len(ports)
        for i, emitted in enumerate(ports):
            for j, arriving in enumerate(ports):
                smatrix[emitted, arriving ^ 1] = m[i, j]
        lead_ports = [k + c for c in range(sum(lv == v for lv in graph.leads))]
        if v == v_in:
            p_in = lead_ports[0]
            for i, b in enumerate(ports):
                inj[b] = m[i, p_in]
                out_r[b ^ 1] = m[p_in, i]
            direct_r = m[p_in, p_in]
            direct_t = m[lead_ports[1], p_in] if v_out == v_in else 0.0
        if v == v_out:
            p_out = lead_ports[-1]
            for i, b in enumerate(ports):
                out_t[b ^ 1] = m[p_out, i]
    return smatrix, inj, out_t, out_r, direct_t, direct_r


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph=small_graphs())
def test_assembly_matches_a_per_vertex_reference(graph):
    assert qg.validate_graph(graph).ok
    system = qg.assemble_bond_system(graph)
    smatrix, inj, out_t, out_r, direct_t, direct_r = _reference_layout(graph)
    assert np.array_equal(system.smatrix, smatrix)
    assert np.array_equal(system.inj, inj)
    assert np.array_equal(system.out_t, out_t)
    assert np.array_equal(system.out_r, out_r)
    assert system.direct_t == direct_t and system.direct_r == direct_r
    assert np.array_equal(system.lengths, np.repeat([e.length for e in graph.edges], 2))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph=small_graphs().map(lambda g: qg.scale_lengths(g, 4.0)),
                  seed=st.integers(0, 2**32 - 1))
def test_extracted_forms_match_solver_on_custom_vertices(graph, seed):
    # integer lengths 2, 4, 5 and 8 on custom non-symmetric vertices,
    # self-loops, multi-edges and shared lead vertices: both channels'
    # forms agree with the solver wherever its solve is regular
    from qgraph.solver import _singular

    kl = np.random.default_rng(seed).uniform(1e-3, 2.0 * np.pi - 1e-3, size=32)
    t, r = qg.solve_many(graph, kl)
    regular = ~_singular(kl, t, r)
    z = np.exp(1j * kl[regular])
    for channel, solved in (("transmission", t), ("reflection", r)):
        amp = qg.extract_rational_amplitude(graph, channel)
        den = np.polynomial.polynomial.polyval(z, amp.den)
        form = np.polynomial.polynomial.polyval(z, amp.num) / den
        tol = 1e-10 + 1e-13 * np.sum(np.abs(amp.den)) / np.abs(den)
        assert np.all(np.abs(form - solved[regular]) < tol)


def _polyval_sweep(t_amp, r_amp, grid):
    # reference for the blocked pass: three polyval calls over the whole
    # grid, the divisions, the Horner rounding bound and the singular-solve
    # mask, each on whole-grid arrays
    from qgraph.solver import HORNER_TOL, _singular

    polyval = np.polynomial.polynomial.polyval
    z = np.exp(1j * grid)
    den = polyval(z, t_amp.den)
    t, r = polyval(z, t_amp.num) / den, polyval(z, r_amp.num) / den
    n = max(len(t_amp.num), len(r_amp.num), len(t_amp.den))
    scale = 2.0 * n * np.finfo(float).eps / np.abs(den)
    bad = _singular(grid, t, r)
    for amp, value in ((t_amp, t), (r_amp, r)):
        bound = scale * (np.abs(amp.num).sum() + np.abs(value) * np.abs(amp.den).sum())
        bad |= ~(bound <= HORNER_TOL)
    return t, r, bad


def _assert_blocked_sweep_is_the_polyval_sweep(graph, grid):
    from qgraph.solver import _extract_channels, _horner_sweep

    forms = _extract_channels(graph)
    t, r, bad = _horner_sweep(*forms, grid)
    t_ref, r_ref, bad_ref = _polyval_sweep(*forms, grid)
    assert np.array_equal(t, t_ref, equal_nan=True)
    assert np.array_equal(r, r_ref, equal_nan=True)
    assert np.array_equal(bad, bad_ref)
    return bad


@pytest.mark.parametrize("text", ["c3-c4-c3", "c99", "c3-c3-c3-c3-c3-c3"])
def test_blocked_horner_sweep_is_bit_identical_to_polyval(text):
    # grids of one point past, at and short of one and two blocks, and the
    # peaks command's 62 633-point grid; six chained triangles re-solve
    # thousands of its points, so the mask is held to the bit as well
    graph, B = resolve_graph(text), _HORNER_BLOCK
    for samples in (2, B - 1, B, B + 1, 2 * B + 1, 62633):
        bad = _assert_blocked_sweep_is_the_polyval_sweep(
            graph, np.linspace(0.01, 2.0 * np.pi - 0.01, samples))
    if text == "c3-c3-c3-c3-c3-c3":
        assert bad.sum() > 1000


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph=small_graphs().map(lambda g: qg.scale_lengths(g, 4.0)),
                  samples=st.one_of(st.integers(2, 40),
                                    st.integers(-2, 2).map(lambda d: _HORNER_BLOCK + d),
                                    st.integers(-2, 2).map(lambda d: 2 * _HORNER_BLOCK + d)),
                  span=st.tuples(st.floats(0.01, 3.0), st.floats(3.5, 40.0)))
def test_blocked_horner_sweep_is_bit_identical_on_custom_vertices(graph, samples, span):
    # complex coefficients from custom vertices, numerators both longer and
    # shorter than the denominator, on grids shorter than a block or within
    # two points of one or two blocks
    _assert_blocked_sweep_is_the_polyval_sweep(graph, np.linspace(*span, samples))


@st.composite
def cli_flags(draw, command):
    """A small graph, scaled to lengths 2, 4, 5 and 8 half of the time so that
    walk and hitting reach the reduction, and flags for ``command`` that keep
    every call to milliseconds."""
    graph = draw(small_graphs())
    if draw(st.booleans()):
        graph = qg.scale_lengths(graph, 4.0)
    kl = st.floats(0.05, 6.2)
    if command == "transmit":
        flags = ["--kl", repr(draw(kl))]
    elif command == "sweep":
        lo, hi = sorted((draw(kl), draw(kl)))
        flags = ["--kl-min", repr(lo), "--kl-max", repr(hi),
                 "--samples", str(draw(st.integers(2, 200))),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
    elif command == "walk":
        flags = ["--max-order", str(draw(st.integers(0, 50))),
                 "--method", draw(st.sampled_from(["series", "power"]))]
    elif command == "hitting":
        flags = ["--tolerance", draw(st.sampled_from(["1e-8", "1e-6"]))]
    elif command == "peaks":
        flags = ["--resolution", repr(draw(st.floats(1e-3, 0.05))),
                 "--format", draw(st.sampled_from(["json", "csv"]))]
    else:
        flags = []
    return graph, flags


@pytest.mark.parametrize("command", ["transmit", "sweep", "walk", "hitting", "peaks", "validate"])
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_cli_contract_on_drawn_graphs_and_flags(command, data):
    # exit 0, 1 or 2, no exception or warning out of main, and a second
    # identical call (a fresh graph, so nothing is reused) prints the same
    graph, flags = data.draw(cli_flags(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        qg.dump_graph(graph, path)
        runs = []
        for _ in range(2):
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, "--graph", path, *flags])
            assert code in (0, 1, 2)
            runs.append((code, out.getvalue()))
    assert runs[0] == runs[1]


def _rounding_unit(graph):
    """eps (||V||_F + (h - 1) ||W||_F) / p_out, the unit of walk_stats_exact's
    rounding charge, from the squared Stein iteration of walks._gramian_stats."""
    _, h, rows = _reduce(graph)
    a, w, n = h, np.outer(rows[0].conj(), rows[0]), 1
    v = np.zeros_like(w)
    while np.linalg.norm(a) ** 2 >= GRAMIAN_STOP:
        ah = a.conj().T
        v, w, a, n = v + ah @ (v + n * w) @ a, w + ah @ w @ a, a @ a, 2 * n
    p_out = w[0, 0].real
    hitting_time = 1.0 + v[0, 0].real / p_out
    return np.finfo(float).eps * (np.linalg.norm(v) + (hitting_time - 1.0) * np.linalg.norm(w)) / p_out


def _complex_typed_twin(graph):
    """A new graph of the same structure whose bond system holds the same
    values as ``graph``'s, typed complex128 as a non-real vertex would make it."""
    system = qg.assemble_bond_system(graph)
    twin = qg.QuantumGraph(vertex_ids=graph.vertex_ids, boundary=graph.boundary,
                           edges=graph.edges, leads=graph.leads)
    twin._memo[qg.assemble_bond_system.__wrapped__] = dataclasses.replace(
        system, smatrix=system.smatrix.astype(complex), inj=system.inj.astype(complex),
        out_t=system.out_t.astype(complex), out_r=system.out_r.astype(complex),
        direct_t=complex(system.direct_t), direct_r=complex(system.direct_r))
    return twin


nk_graphs = small_graphs().map(lambda g: qg.QuantumGraph(
    vertex_ids=g.vertex_ids, boundary=(qg.NK,) * len(g.vertex_ids), edges=g.edges, leads=g.leads))


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph=nk_graphs, seed=st.integers(0, 2**32 - 1))
def test_real_bond_systems_solve_to_the_bits_of_complex_ones(graph, seed):
    # the dense solver casts a real bond map to complex before it multiplies
    # by the phases, so NK graphs solve to the same bits as when their bond
    # systems were complex; NK matrices passed as custom matrices are real too
    custom = qg.QuantumGraph(vertex_ids=graph.vertex_ids, edges=graph.edges, leads=graph.leads,
                             boundary=tuple(graph.vertex_matrix(v) for v in graph.vertex_ids))
    assert qg.assemble_bond_system(graph).smatrix.dtype == np.float64
    assert qg.assemble_bond_system(custom).smatrix.dtype == np.float64
    kl = np.random.default_rng(seed).uniform(0.05, 40.0, size=300)
    t, r = qg.solve_many(graph, kl)
    for other in (custom, _complex_typed_twin(graph)):
        t_other, r_other = qg.solve_many(other, kl)
        assert np.array_equal(t, t_other, equal_nan=True)
        assert np.array_equal(r, r_other, equal_nan=True)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 on this platform")
def test_exact_route_stays_within_its_rounding_charge():
    # c4-c3-c6-c4 against power iteration of its bond map in extended
    # precision.  The complex sums were 27.4 units off here, the real ones
    # 2.8, where a unit is eps (||V||_F + (h - 1) ||W||_F) / p_out and the
    # charge 16 units.  (Other chains exceed the charge in real arithmetic
    # too, c3-c6-c5 by 23.8 units; this one pins the complex excess.)
    # Trapped modes never decay, so the iteration runs until the coupled
    # modes have: max |eig H| = 1 - delta, and exp(-2 delta M) delta < e^-60.
    graph = resolve_graph("c4-c3-c6-c4")
    system = qg.assemble_bond_system(subdivide_integral(graph))
    s, inj, out = (x.astype(np.longdouble) for x in (system.smatrix, system.inj, system.out_t))
    delta = 1.0 - np.max(np.abs(np.linalg.eigvals(_reduce(graph)[1])))
    steps = int((60.0 + np.log(1.0 / delta)) / (2.0 * delta)) + 1
    # c_m = out S^(m-1) inj in blocks: rows[j] = out S^j, advance by S^block
    block = 4096
    rows = np.empty((block, len(out)), dtype=np.longdouble)
    rows[0] = out
    for j in range(1, block):
        rows[j] = rows[j - 1] @ s
    advance = np.linalg.matrix_power(s, block)
    a, p_out, moment = inj, np.longdouble(0), np.longdouble(0)
    m = np.arange(1, block + 1, dtype=np.longdouble)
    for start in range(0, steps, block):
        c2 = (rows @ a) ** 2
        p_out, moment = p_out + c2.sum(), moment + ((m + start) * c2).sum()
        a = advance @ a
    error = qg.walk_stats_exact(graph).hitting_time - moment / p_out
    assert abs(error) <= _GRAMIAN_ROUNDING * _rounding_unit(graph)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(graph=nk_graphs.map(lambda g: subdivide_integral(qg.scale_lengths(g, 4.0))))
def test_exact_route_in_real_and_complex_arithmetic_agrees(graph):
    # drawn NK graphs (unit bonds after subdivision) are summed in real
    # arithmetic, their complex-typed twins in complex.  Against power
    # iteration in extended precision, each route was within 30 units of
    # the truth on the presets c3..c99 and the 672 chains of 2-4 cycles of
    # sizes 3-6, beyond the 16-unit charge on 10 (real) and 5 (complex) of
    # them; so the two are held within 64 units, and here differ by up to
    # 33.5 (one vertex carrying both leads and three self-loops).
    twin = _complex_typed_twin(graph)
    try:
        real = qg.walk_stats_exact(graph)
    except (ValueError, ArithmeticError):  # no transmitted weight, or too slow to sum
        hypothesis.assume(False)
    complex_ = qg.walk_stats_exact(twin)
    assert _reduce(graph)[1].dtype == np.float64 and _reduce(twin)[1].dtype == np.complex128
    unit = _rounding_unit(graph)
    assert abs(real.hitting_time - complex_.hitting_time) <= 4 * _GRAMIAN_ROUNDING * unit
