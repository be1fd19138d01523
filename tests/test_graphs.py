"""Vertex matrices, graph construction, validation, and JSON round-trips."""

import numpy as np
import pytest

import qgraph as qg


@pytest.mark.parametrize("degree", range(1, 21))
def test_nk_matrix_unitary_with_unit_row_sums(degree):
    sigma = qg.nk_vertex_matrix(degree)
    assert sigma.shape == (degree, degree) and not sigma.flags.writeable
    defect = np.max(np.abs(sigma @ sigma.conj().T - np.eye(degree)))
    assert defect < 1e-12
    assert np.max(np.abs(sigma.sum(axis=1) - 1.0)) < 1e-12


def test_nk_matrix_low_degree_entries():
    two = qg.nk_vertex_matrix(2)
    assert abs(two[0, 0]) < 1e-15 and abs(two[0, 1] - 1.0) < 1e-15
    three = qg.nk_vertex_matrix(3)
    assert abs(three[0, 0] + 1.0 / 3.0) < 1e-15
    assert abs(three[0, 1] - 2.0 / 3.0) < 1e-15
    four = qg.nk_vertex_matrix(4)
    assert abs(four[0, 0] + 0.5) < 1e-15
    assert abs(four[1, 0] - 0.5) < 1e-15


@pytest.mark.parametrize("bad", [0, -1, 2.5, "three"])
def test_nk_matrix_rejects_bad_degree(bad):
    with pytest.raises(ValueError):
        qg.nk_vertex_matrix(bad)


@pytest.mark.parametrize("n", range(3, 51))
def test_cycle_graph_validates(n):
    assert qg.validate_graph(qg.make_cycle_graph(n)).ok


def test_cycle_graph_structure():
    graph = qg.make_cycle_graph(5, length=2.0)
    assert graph.num_vertices == 5
    assert graph.num_edges == 5
    assert graph.leads == (1, 2)
    assert [graph.degree(v) for v in graph.vertex_ids] == [3, 3, 2, 2, 2]
    assert all(e.length == 2.0 for e in graph.edges)
    # ring closes back to vertex 1
    assert {(e.u, e.v) for e in graph.edges} == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)}


@pytest.mark.parametrize("bad", [2, 0, 3.5])
def test_cycle_graph_rejects_bad_size(bad):
    with pytest.raises(ValueError):
        qg.make_cycle_graph(bad)


def test_degree_counts_self_loops_twice_and_leads():
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2),
        boundary=(qg.NK, qg.NK),
        edges=(qg.Edge(1, 1), qg.Edge(1, 2)),
        leads=(2,),
    )
    assert graph.degree(1) == 3
    assert graph.degree(2) == 2


def test_attach_and_strip_leads():
    bare = qg.strip_leads(qg.make_cycle_graph(4))
    assert bare.leads == ()
    one = qg.attach_lead(bare, 2)
    two = qg.attach_lead(one, 4)
    assert two.leads == (2, 4)
    with pytest.raises(ValueError):
        qg.attach_lead(two, 1)
    with pytest.raises(ValueError):
        qg.attach_lead(bare, 99)


def test_vertex_matrix_tracks_lead_degree():
    graph = qg.make_cycle_graph(3)
    # vertex 1 carries a lead: degree 3; vertex 3 does not: degree 2
    assert graph.vertex_matrix(1).shape == (3, 3)
    assert abs(graph.vertex_matrix(3)[0, 1] - 1.0) < 1e-15
    with pytest.raises(KeyError):
        graph.vertex_matrix(42)


def test_custom_boundary_matrix_is_used_verbatim():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2, 3),
        boundary=(qg.NK, qg.NK, swap),
        edges=(qg.Edge(1, 2), qg.Edge(2, 3), qg.Edge(3, 1)),
        leads=(1, 2),
    )
    assert qg.validate_graph(graph).ok
    assert np.array_equal(graph.vertex_matrix(3), swap)
    assert not graph.vertex_matrix(3).flags.writeable


def test_validate_reports_structural_problems():
    graph = qg.QuantumGraph(
        vertex_ids=(1, 1, 2),
        boundary=(qg.NK, qg.NK, qg.NK),
        edges=(qg.Edge(1, 7), qg.Edge(1, 2, length=-1.0)),
        leads=(1,),
    )
    report = qg.validate_graph(graph)
    assert not report.ok
    text = str(report)
    assert "duplicate vertex id 1" in text
    assert "unknown vertex 7" in text
    assert "non-positive length" in text
    assert "1 leads" in text


def test_validate_reports_non_finite_lengths():
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2),
        boundary=(qg.NK, qg.NK),
        edges=(qg.Edge(1, 2, length=np.inf), qg.Edge(1, 2, length=np.nan)),
        leads=(1, 2),
    )
    problems = qg.validate_graph(graph).problems
    assert "edge 0 has non-finite length inf" in problems
    assert "edge 1 has non-positive length nan" in problems


def test_validate_reports_disconnection():
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2, 3, 4),
        boundary=(qg.NK,) * 4,
        edges=(qg.Edge(1, 2), qg.Edge(3, 4)),
        leads=(1, 2),
    )
    report = qg.validate_graph(graph)
    assert any("disconnected" in p for p in report.problems)


def test_validate_reports_bad_custom_matrices():
    non_unitary = np.diag([2.0, 1.0]).astype(complex)
    wrong_dim = np.eye(4, dtype=complex)
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2, 3),
        boundary=(qg.NK, wrong_dim, non_unitary),
        edges=(qg.Edge(1, 2), qg.Edge(2, 3), qg.Edge(3, 1)),
        leads=(1, 2),
    )
    report = qg.validate_graph(graph)
    assert any("degree" in p for p in report.problems)
    assert any("not unitary" in p for p in report.problems)


def test_validation_report_truthiness():
    ok = qg.validate_graph(qg.make_cycle_graph(3))
    assert ok and bool(ok) and str(ok) == "ok"


def test_scale_lengths():
    graph = qg.scale_lengths(qg.make_cycle_graph(3), 2.5)
    assert all(e.length == 2.5 for e in graph.edges)
    with pytest.raises(ValueError):
        qg.scale_lengths(graph, 0.0)
    with pytest.raises(ValueError, match="finite"):
        qg.scale_lengths(graph, np.inf)


def test_json_round_trip_preserves_everything():
    graph = qg.make_cycle_graph(4, length=2.0)
    back = qg.graph_from_json(qg.graph_to_json(graph))
    assert back.vertex_ids == graph.vertex_ids
    assert back.leads == graph.leads
    assert [(e.u, e.v, e.length) for e in back.edges] == [
        (e.u, e.v, e.length) for e in graph.edges
    ]


def test_json_round_trip_custom_matrix():
    sigma = qg.nk_vertex_matrix(2)
    graph = qg.QuantumGraph(
        vertex_ids=(1, 2, 3),
        boundary=(qg.NK, qg.NK, sigma),
        edges=(qg.Edge(1, 2), qg.Edge(2, 3), qg.Edge(3, 1)),
        leads=(1, 2),
    )
    back = qg.graph_from_json(qg.graph_to_json(graph))
    assert np.max(np.abs(back.bc_of(3) - sigma)) < 1e-15


def test_json_edge_length_defaults_to_one():
    data = {
        "vertices": [{"id": 1, "bc": "nk"}, {"id": 2, "bc": "nk"}, {"id": 3, "bc": "nk"}],
        "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}, {"from": 3, "to": 1}],
        "leads": [{"vertex": 1}, {"vertex": 2}],
    }
    graph = qg.graph_from_json(data)
    assert all(e.length == 1.0 for e in graph.edges)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["vertices"][0].update(color="red"),
        lambda d: d["edges"][0].update(weight=2),
        lambda d: d["leads"][0].update(side="left"),
        lambda d: d["vertices"][0].update(id=True),
        lambda d: d["edges"][0].update(length="long"),
    ],
)
def test_json_rejects_unknown_keys_and_bad_values(mutate):
    data = {
        "vertices": [{"id": 1, "bc": "nk"}, {"id": 2, "bc": "nk"}, {"id": 3, "bc": "nk"}],
        "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}, {"from": 3, "to": 1}],
        "leads": [{"vertex": 1}, {"vertex": 2}],
    }
    mutate(data)
    with pytest.raises(ValueError):
        qg.graph_from_json(data)


def test_json_rejects_invalid_graphs():
    # one lead and a dangling edge: loading must fail, not defer to the caller
    data = {
        "vertices": [{"id": 1, "bc": "nk"}, {"id": 2, "bc": "nk"}],
        "edges": [{"from": 1, "to": 2}],
        "leads": [{"vertex": 1}],
    }
    with pytest.raises(ValueError, match="validation"):
        qg.graph_from_json(data)


def test_dump_and_load_graph_file(tmp_path):
    path = str(tmp_path / "cycle.json")
    graph = qg.make_cycle_graph(6)
    qg.dump_graph(graph, path)
    back = qg.load_graph(path)
    assert back.vertex_ids == graph.vertex_ids
    assert back.leads == graph.leads


def test_load_graph_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        qg.load_graph(str(path))


def test_integral_lengths():
    graph = qg.scale_lengths(qg.make_cycle_graph(4), 2.0)
    assert qg.integral_lengths(graph) == [2, 2, 2, 2]
    with pytest.raises(ValueError, match="edge 0"):
        qg.integral_lengths(qg.scale_lengths(graph, 0.75))


def test_subdivide_integral_keeps_exact_unit_graphs():
    # nothing to split: the same object, so assembly and reduction caches
    # are shared; a length within rounding of 1 still gets a new unit graph
    unit = qg.make_cycle_graph(5)
    assert qg.subdivide_integral(unit) is unit
    near = qg.scale_lengths(unit, 1.0 + 1e-10)
    fine = qg.subdivide_integral(near)
    assert fine is not near
    assert all(e.length == 1.0 for e in fine.edges)
    assert fine.vertex_ids == near.vertex_ids and fine.leads == near.leads


def test_subdivide_integral_matches_original_amplitudes():
    graph = qg.scale_lengths(qg.make_cycle_graph(4), 2.0)
    fine = qg.subdivide_integral(graph)
    assert fine.num_vertices == 8
    assert all(e.length == 1.0 for e in fine.edges)
    assert qg.validate_graph(fine).ok
    kl = np.linspace(0.1, 6.2, 200)
    t_coarse, r_coarse = qg.solve_many(graph, kl)
    t_fine, r_fine = qg.solve_many(fine, kl)
    assert np.max(np.abs(t_coarse - t_fine)) < 1e-12
    assert np.max(np.abs(r_coarse - r_fine)) < 1e-12
