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
"""

import numpy as np
import pytest

import qgraph as qg

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
