"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

import qgraph as qg
from qgraph.cli import main, resolve_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transmit_matches_solver(capsys):
    code, out, err = run(capsys, "transmit", "--graph", "c3", "--kl", "1.25")
    assert code == 0 and err == ""
    header, row = out.strip().splitlines()
    assert header == "kl,re_t,im_t,t2,r2"
    res = qg.scattering_or_limit(qg.make_cycle_graph(3), 1.25)
    fields = [float(x) for x in row.split(",")]
    assert fields[0] == 1.25
    assert fields[1] == res.t_global.real
    assert fields[3] == res.t2


def test_uppercase_preset_accepted(capsys):
    code, out, _ = run(capsys, "transmit", "--graph", "C4", "--kl", "2.0")
    assert code == 0


def test_sweep_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--graph", "c4",
        "--kl-min", "1.0", "--kl-max", "2.0", "--samples", "5",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 6

    code, out, _ = run(
        capsys, "sweep", "--graph", "c4",
        "--kl-min", "1.0", "--kl-max", "2.0", "--samples", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert set(data[0]) == {"kl", "re_t", "im_t", "t2", "r2"}


def test_out_file_matches_stdout(tmp_path, capsys):
    args = ["sweep", "--graph", "c3", "--kl-min", "0.5", "--kl-max", "1.5",
            "--samples", "20"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    path = tmp_path / "sweep.csv"
    code = main(args + ["--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_text() == out


def test_walk_methods_agree(capsys):
    code, out_series, _ = run(capsys, "walk", "--graph", "c3", "--max-order", "8")
    assert code == 0
    code, out_power, _ = run(
        capsys, "walk", "--graph", "c3", "--max-order", "8", "--method", "power"
    )
    assert code == 0
    rows_s = out_series.strip().splitlines()
    rows_p = out_power.strip().splitlines()
    assert rows_s[0] == "m,re_c,im_c,p" and len(rows_s) == 10
    for line_s, line_p in zip(rows_s[1:], rows_p[1:]):
        p_s = float(line_s.split(",")[3])
        p_p = float(line_p.split(",")[3])
        assert abs(p_s - p_p) < 1e-12


def test_hitting_reports_both_routes(capsys):
    code, out, _ = run(capsys, "hitting", "--graph", "c4")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert set(values) == {"h", "p_out", "h_quadrature", "p_out_quadrature"}
    assert abs(float(values["h"]) - 155.0 / 72.0) < 1e-6
    assert abs(float(values["h_quadrature"]) - 155.0 / 72.0) < 1e-6
    assert abs(float(values["p_out"]) - 4.0 / 9.0) < 1e-6


def test_peaks_json(capsys):
    code, out, _ = run(
        capsys, "peaks", "--graph", "c3-c3", "--resolution", "2e-4"
    )
    assert code == 0
    peaks = json.loads(out)
    assert len(peaks) == 2
    assert abs(peaks[0]["center"] - (np.pi - 0.91393)) < 1e-3
    assert abs(peaks[1]["center"] - (np.pi + 0.91393)) < 1e-3
    assert all(p["height"] >= 0.999 for p in peaks)


def test_peaks_csv_header(capsys):
    code, out, _ = run(
        capsys, "peaks", "--graph", "c3-c3", "--resolution", "2e-4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "center,height,fwhm,band_lo,band_hi"
    assert len(lines) == 3


def test_validate_preset(capsys):
    code, out, _ = run(capsys, "validate", "--graph", "c5")
    assert code == 0 and out.strip() == "ok"


def test_graph_file_source(tmp_path, capsys):
    path = tmp_path / "five.json"
    qg.dump_graph(qg.make_cycle_graph(5), str(path))
    _, out_file, _ = run(capsys, "transmit", "--graph", str(path), "--kl", "1.1")
    _, out_preset, _ = run(capsys, "transmit", "--graph", "c5", "--kl", "1.1")
    assert out_file == out_preset


def test_edgeless_graph_transmits_directly(tmp_path, capsys):
    # both leads on one NK vertex of degree 2: t = 1, r = 0, no bonds to solve
    path = tmp_path / "edgeless.json"
    path.write_text(
        '{"vertices": [{"id": 1, "bc": "nk"}], "edges": [], '
        '"leads": [{"vertex": 1}, {"vertex": 1}]}'
    )
    code, out, err = run(capsys, "transmit", "--graph", str(path), "--kl", "1")
    assert code == 0 and err == ""
    row = [float(x) for x in out.strip().splitlines()[1].split(",")]
    assert row == [1.0, 1.0, 0.0, 1.0, 0.0]


def test_edgeless_graph_has_no_hitting_time(tmp_path, capsys):
    # t is the constant direct amplitude: no walk ever exits, a usage error
    path = tmp_path / "edgeless.json"
    path.write_text(
        '{"vertices": [{"id": 1, "bc": "nk"}], "edges": [], '
        '"leads": [{"vertex": 1}, {"vertex": 1}]}'
    )
    code, out, err = run(capsys, "hitting", "--graph", str(path))
    assert code == 1 and out == ""
    assert "qgraph: error: no transmitted weight" in err


def _nan_matrix_graph(path):
    # c3 with a custom 2x2 matrix of NaN cells at its off-lead vertex; Python's
    # json reads and writes NaN
    graph = qg.graphs.graph_to_json(qg.make_cycle_graph(3))
    nan = {"re": float("nan"), "im": 0.0}
    graph["vertices"][2]["bc"] = {"custom": [[nan, nan], [nan, nan]]}
    path.write_text(json.dumps(graph))
    assert "NaN" in path.read_text()
    return str(path)


def test_validate_names_a_non_finite_matrix_entry(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--graph", _nan_matrix_graph(tmp_path / "nan.json"))
    assert code == 1 and out == ""
    assert "vertex 3 boundary matrix entry (0, 0) is not finite" in err


@pytest.mark.parametrize("method", ["series", "power"])
def test_walk_refuses_a_non_finite_matrix(method, tmp_path, capsys):
    code, out, err = run(capsys, "walk", "--graph", _nan_matrix_graph(tmp_path / "nan.json"),
                         "--method", method)
    assert code == 1 and out == ""
    assert "is not finite" in err


def test_a_singular_limit_exits_two(monkeypatch, capsys):
    # the solve at kl = 1.5 and at 1.5 +- 1e-9 is non-finite
    import qgraph.solver as solver_mod

    clean = solver_mod._solve_bonds

    def poisoned(system, kl):
        out = clean(system, kl)
        out[np.abs(kl - 1.5) < 1e-8] = np.nan
        return out

    monkeypatch.setattr(solver_mod, "_solve_bonds", poisoned)
    code, out, err = run(capsys, "sweep", "--graph", "c3", "--kl-min", "1",
                         "--kl-max", "2", "--samples", "11")
    assert code == 2 and out == ""
    assert "singular on the energy shell" in err


def test_length_scale_shifts_the_spectrum(capsys):
    # doubling the lengths halves the wavenumber of every feature
    _, out_scaled, _ = run(
        capsys, "transmit", "--graph", "c3", "--kl", "0.625",
        "--length-scale", "2.0",
    )
    scaled = [float(x) for x in out_scaled.strip().splitlines()[1].split(",")]
    res = qg.scattering_or_limit(qg.make_cycle_graph(3), 1.25)
    assert abs(scaled[3] - res.t2) < 1e-12


def test_resolve_graph_prefers_presets():
    graph = resolve_graph("c3-c4-c3")
    assert graph.num_vertices == 10
    with pytest.raises(ValueError, match="--graph"):
        resolve_graph("c101")
    with pytest.raises(ValueError, match="--graph"):
        resolve_graph("nosuch.json")


# A triangle whose first edge length, 1e400, parses to inf.
INF_LENGTH_GRAPH = "<c3 with a 1e400 edge>"
INF_LENGTH_JSON = (
    '{"vertices": [{"id": 1, "bc": "nk"}, {"id": 2, "bc": "nk"}, {"id": 3, "bc": "nk"}], '
    '"edges": [{"from": 1, "to": 2, "length": 1e400}, {"from": 2, "to": 3}, '
    '{"from": 3, "to": 1}], "leads": [{"vertex": 1}, {"vertex": 2}]}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ["transmit", "--graph", "nosuch", "--kl", "1.0"],
        ["transmit", "--graph", "c2", "--kl", "1.0"],
        ["transmit", "--graph", "c3", "--kl", "0"],
        ["transmit", "--graph", "c3", "--kl", "1.0", "--length-scale", "-1"],
        ["sweep", "--graph", "c3", "--kl-min", "2.0", "--kl-max", "1.0",
         "--samples", "10"],
        ["peaks", "--graph", "c3", "--resolution", "-0.1"],
        ["peaks", "--graph", "c3", "--resolution", "nan"],
        ["walk", "--graph", "c3+c4-c3"],
        ["sweep", "--graph", "c3", "--kl-min", "0.1", "--kl-max", "inf",
         "--samples", "10"],
        ["peaks", "--graph", "c3", "--kl-max", "inf"],
        ["transmit", "--graph", INF_LENGTH_GRAPH, "--kl", "1.0"],
        ["sweep", "--graph", INF_LENGTH_GRAPH, "--kl-min", "0.1", "--kl-max", "1",
         "--samples", "10"],
        ["walk", "--graph", INF_LENGTH_GRAPH],
        ["transmit", "--graph", "c3", "--kl", "1.0", "--length-scale", "inf"],
        ["sweep", "--graph", "c3", "--kl-min", "0.1", "--kl-max", "1",
         "--samples", "10", "--length-scale", "inf"],
        ["walk", "--graph", "c3", "--length-scale", "inf"],
        ["hitting", "--graph", "c3", "--tolerance", "-1"],
        ["hitting", "--graph", "c3", "--tolerance", "0"],
        ["hitting", "--graph", "c3", "--tolerance", "nan"],
        ["hitting", "--graph", "c3", "--tolerance", "inf"],
        # phases kl * length past 1e15 keep no correct digits
        ["transmit", "--graph", "c3", "--length-scale", "1e308", "--kl", "1"],
        ["peaks", "--graph", "c3-c3", "--length-scale", "1e300"],
        ["sweep", "--graph", "c3", "--kl-min", "1", "--kl-max", "2",
         "--samples", "3", "--length-scale", "1e308"],
        ["sweep", "--graph", "c3", "--kl-min", "1e299", "--kl-max", "1e300",
         "--samples", "70000"],
        # the default resolution is coarser than the range
        ["peaks", "--graph", "c3", "--kl-min", "3", "--kl-max", "3.00001"],
        # grids too large to allocate, or to count in an integer
        ["peaks", "--graph", "c3", "--resolution", "1e-12"],
        ["peaks", "--graph", "c3", "--resolution", "1e-300"],
        ["peaks", "--graph", "c3", "--kl-max", "1e300"],
        ["peaks", "--graph", "c3", "--kl-max", "1e308"],
    ],
)
def test_usage_errors_exit_one(argv, tmp_path, capsys):
    graph_file = tmp_path / "inf_length.json"
    graph_file.write_text(INF_LENGTH_JSON)
    argv = [str(graph_file) if a == INF_LENGTH_GRAPH else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "qgraph: error:" in captured.err


@pytest.mark.parametrize("resolution", ["nan", "inf"])
def test_peaks_resolution_errors_name_the_flag(resolution, capsys):
    assert main(["peaks", "--graph", "c3", "--resolution", resolution]) == 1
    assert "--resolution: must be positive and finite" in capsys.readouterr().err


def test_peaks_resolution_coarser_than_the_range_names_the_flag(capsys):
    assert main(["peaks", "--graph", "c3", "--kl-min", "3", "--kl-max", "3.00001"]) == 1
    err = capsys.readouterr().err
    assert "--resolution: 0.0001 leaves fewer than two grid points on [3.0, 3.00001]" in err


@pytest.mark.parametrize("flags, message", [
    (["--resolution", "1e-12"], "1e-12 gives 6.26e+12 grid points on [0.01, 6.27"),
    (["--resolution", "1e-300"], "1e-300 gives 6.26e+300 grid points on [0.01, 6.27"),
    (["--kl-max", "1e300"], "0.0001 gives 1e+304 grid points on [0.01, 1e+300]"),
    (["--kl-max", "1e308"], "0.0001 gives inf grid points on [0.01, 1e+308]"),
])
def test_peaks_grid_past_memory_names_the_flag(flags, message, capsys):
    assert main(["peaks", "--graph", "c3", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qgraph: error: --resolution: " + message)
    assert err.endswith("more than physical memory holds\n")


def test_peaks_grid_bound_is_sixteen_bytes_a_point(monkeypatch, capsys):
    # 0.5 on [1, 2] is a three-point grid: 48 bytes of transmission amplitudes
    argv = ["peaks", "--graph", "c3", "--kl-min", "1", "--kl-max", "2", "--resolution", "0.5"]
    monkeypatch.setattr("qgraph.cli._physical_memory", lambda: 47.0)
    assert main(argv) == 1
    assert "3 grid points on [1.0, 2.0]" in capsys.readouterr().err
    monkeypatch.setattr("qgraph.cli._physical_memory", lambda: 48.0)
    assert main(argv) == 0


@pytest.mark.parametrize("samples", ["100000000000000000", "1" + "0" * 30])
def test_sweep_grid_past_memory_names_the_flag(samples, capsys):
    # refused before any allocation: numpy would ask for 711 PiB, or
    # refuse an array that large without naming the flag
    assert main(["sweep", "--graph", "c3", "--kl-min", "0.1", "--kl-max", "1",
                 "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qgraph: error: samples: {samples} grid points on [0.1, 1.0], "
                            "more than physical memory holds\n")


def test_sweep_grid_bound_is_sixteen_bytes_a_point(monkeypatch):
    graph = qg.make_cycle_graph(3)
    monkeypatch.setattr("qgraph.analysis._physical_memory", lambda: 47.0)
    with pytest.raises(ValueError, match="samples: 3 grid points on"):
        qg.sweep_transmission(graph, 1.0, 2.0, 3)
    monkeypatch.setattr("qgraph.analysis._physical_memory", lambda: 48.0)
    assert qg.sweep_transmission(graph, 1.0, 2.0, 3).kl.shape == (3,)


@pytest.mark.parametrize("argv", [
    ["nosuch"],
    ["transmit", "--kl", "1"],
    ["transmit", "--graph", "c3", "--kl", "abc"],
])
def test_argparse_usage_errors_exit_one_with_the_usage_line(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qgraph")
    assert "error: " in captured.err.splitlines()[-1]


def test_numerical_failures_exit_two(monkeypatch, capsys):
    def explode(graph, tolerance):
        raise qg.TruncationError("cannot certify")

    monkeypatch.setattr("qgraph.cli.walk_stats_exact", explode)
    code = main(["hitting", "--graph", "c3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "qgraph: numerical failure:" in captured.err


def test_lapack_failures_exit_two(monkeypatch, capsys):
    # LinAlgError subclasses ValueError, yet it is a numerical failure
    def explode(graph):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("qgraph.cli.extract_rational_amplitude", explode)
    code = main(["hitting", "--graph", "c3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "qgraph: numerical failure: Singular matrix" in captured.err


def test_out_of_memory_exits_two(monkeypatch, capsys):
    # an oversized grid fails to allocate; that is a failure, not a traceback
    def explode(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr("qgraph.cli.sweep_transmission", explode)
    code = main(["sweep", "--graph", "c3", "--kl-min", "0.1", "--kl-max", "1",
                 "--samples", "100000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "qgraph: out of memory: Unable to allocate 745. GiB for an array\n"


def test_oversized_subdivision_fails_fast(monkeypatch, capsys):
    # c3 subdivides into 6 unit bonds, whose 576-byte bond matrix does not
    # fit in the 500 bytes reported here; nothing may be built first
    monkeypatch.setattr("qgraph.graphs._physical_memory", lambda: 500.0)
    for method in ("series", "power"):
        code = main(["walk", "--graph", "c3", "--max-order", "3", "--method", method])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("qgraph: out of memory: subdividing into 6 unit bonds")
    monkeypatch.setattr("qgraph.graphs._physical_memory", lambda: 576.0)
    assert main(["walk", "--graph", "c3", "--max-order", "3"]) == 0


@pytest.mark.parametrize("command", [
    ["sweep", "--kl-min", "1e-300", "--kl-max", "2e-300", "--samples", "3"],
    ["peaks", "--kl-min", "1e-300", "--kl-max", "6e-300", "--resolution", "1e-302"],
])
def test_huge_finite_lengths_take_the_solver_route(command, capsys):
    # a total length near 3e300 must not break the sweep routing rule; the
    # wavenumbers keep every phase kl * length below 1e15
    code = main(command + ["--graph", "c3", "--length-scale", "1e300"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""


@pytest.mark.parametrize("command", [
    ["sweep", "--kl-min", "1", "--kl-max", "2", "--samples", "3"],
    ["transmit", "--kl", "1"],
])
def test_tiny_lengths_are_a_singular_solve_without_warnings(command, capsys):
    # every phase rounds to 1, so the solve is singular and |t|^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--graph", "c3", "--length-scale", "1e-300"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("qgraph: numerical failure: bond system is singular")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_wavenumber_exits_one(value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["transmit", "--graph", "c3", f"--kl={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("qgraph: error: kl must be finite")


@pytest.mark.parametrize("source", ["c4-c4", "c3-c4-c3"])
def test_hitting_on_chains_with_trapped_modes(source, capsys):
    code, out, err = run(capsys, "hitting", "--graph", source)
    assert code == 0 and err == ""
    values = {k: float(v) for k, v in (line.split(" = ") for line in out.splitlines())}
    assert abs(values["h"] - values["h_quadrature"]) < 1e-8
    assert abs(values["p_out"] - values["p_out_quadrature"]) < 1e-8


@pytest.mark.parametrize("source", ["c31", "c5-c6"])
def test_hitting_answers_where_the_series_is_too_slow(source, capsys):
    # both need series orders past 32768; the Gramian route sums them exactly
    code, out, err = run(capsys, "hitting", "--graph", source)
    assert code == 0 and err == ""
    values = {k: float(v) for k, v in (line.split(" = ") for line in out.splitlines())}
    assert abs(values["h"] - values["h_quadrature"]) < 1e-8
    assert abs(values["p_out"] - values["p_out_quadrature"]) < 1e-8


@pytest.mark.parametrize("source", [
    "c37", "c39", "c58", "c60", "c62", "c64", "c3+c5+c6+c5", "c5+c6+c5+c3",
    "c3-c5-c3-c5", "c5-c3-c5-c3", "c6-c5-c5-c6",
])
def test_hitting_answers_where_the_quadrature_settles_on_its_pole_decay(source, capsys):
    # poles close enough to the circle to need 2^18-2^19 nodes: the
    # quadrature settles on rho^-n and a change below 1e-8 relative, and
    # both routes agree
    code, out, err = run(capsys, "hitting", "--graph", source)
    assert code == 0 and err == ""
    values = {k: float(v) for k, v in (line.split(" = ") for line in out.splitlines())}
    exact = qg.walk_stats_exact(qg.compose_series(qg.parse_series_shorthand(source)))
    assert abs(values["h_quadrature"] - exact.hitting_time) < 1e-8
    assert abs(values["p_out_quadrature"] - exact.p_out) < 1e-8


def test_hitting_refuses_without_a_check_route(capsys):
    # the exact route answers c99, but no quadrature converges to check it
    code, out, err = run(capsys, "hitting", "--graph", "c99")
    assert code == 2 and out == ""
    assert err == "qgraph: numerical failure: circle quadrature did not converge\n"


def test_hitting_refuses_a_long_chain_through_the_route_check(capsys):
    # c3x6's quadrature settles about 6e-7 off the exact h, and the route
    # check, not the quadrature, refuses the result
    code, out, err = run(capsys, "hitting", "--graph", "-".join(["c3"] * 6))
    assert code == 2 and out == ""
    assert err.startswith("qgraph: numerical failure: h = ")
    assert "h_quadrature" in err and "differ by more than 1.0e-08" in err


@pytest.mark.parametrize("field, tolerance", [("hitting_time", None), ("p_out", "1e-3")])
def test_hitting_refuses_routes_that_disagree(field, tolerance, monkeypatch, capsys):
    # a planted quadrature value past max(tolerance, 1e-8) prints nothing
    import dataclasses

    import qgraph.cli as cli_mod

    real = cli_mod.walk_stats_by_quadrature
    shift = 2e-8 if tolerance is None else 2e-3

    def planted(offset):
        def quadrature(amp):
            stats = real(amp)
            return dataclasses.replace(stats, **{field: getattr(stats, field) + offset})
        return quadrature

    argv = ["hitting", "--graph", "c3"] + ([] if tolerance is None else ["--tolerance", tolerance])
    monkeypatch.setattr(cli_mod, "walk_stats_by_quadrature", planted(shift))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    name = "h" if field == "hitting_time" else "p_out"
    assert err.startswith(f"qgraph: numerical failure: {name} = ")
    assert err.count("\n") == 1
    # a quarter of the offset stays within the limit and prints
    monkeypatch.setattr(cli_mod, "walk_stats_by_quadrature", planted(shift / 4))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("h = ")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import qgraph.cli as cli_mod

    built = []
    real = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or real())
    cli_mod._parser.cache_clear()
    try:
        _, first, _ = run(capsys, "hitting", "--graph", "c3")
        _, second, _ = run(capsys, "hitting", "--graph", "c3")
    finally:
        cli_mod._parser.cache_clear()
    assert built == [1]
    assert first == second and first.startswith("h = ")


def test_thread_env_does_not_change_output(monkeypatch, capsys):
    args = ["sweep", "--graph", "c3-c4", "--kl-min", "0.1", "--kl-max", "6.2",
            "--samples", "300"]
    monkeypatch.delenv("QGRAPH_THREADS", raising=False)
    _, serial, _ = run(capsys, *args)
    monkeypatch.setenv("QGRAPH_THREADS", "4")
    _, threaded, _ = run(capsys, *args)
    assert serial == threaded


def test_identical_invocations_are_bit_identical(capsys):
    args = ["hitting", "--graph", "c3-c3"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("source", ["c3", "shared-c3"])
def test_zero_step_coefficient_is_the_direct_term_on_both_routes(source, tmp_path, capsys):
    # det(I - z S) is 1 at z = 0, so the series c_0 is the direct lead-to-lead
    # amplitude exactly (0 for c3, 1/2 with both leads on one vertex), not FFT noise
    if source == "shared-c3":
        bare = qg.strip_leads(qg.make_cycle_graph(3))
        source = str(tmp_path / "shared.json")
        qg.dump_graph(qg.attach_lead(qg.attach_lead(bare, 1), 1), source)
    code, series, _ = run(capsys, "walk", "--graph", source, "--max-order", "0")
    assert code == 0
    code, power, _ = run(
        capsys, "walk", "--graph", source, "--max-order", "0", "--method", "power"
    )
    assert code == 0
    assert series == power
