"""Public API integrity: every export resolves, removed names stay removed."""

import dataclasses
import inspect

import qgraph as qg

# Names that left the public API, with the module that held them; an export
# that brings one back is stale.
REMOVED = {"walk_stats": "walks", "VertexScattering": "graphs"}


def test_every_export_resolves_to_a_package_object():
    assert len(set(qg.__all__)) == len(qg.__all__)
    for name in qg.__all__:
        obj = getattr(qg, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__.startswith("qgraph."), name
            module = inspect.getmodule(obj)
            assert getattr(module, obj.__name__) is obj, name


def test_removed_names_are_not_exported():
    for name, module in REMOVED.items():
        assert name not in qg.__all__
        assert not hasattr(qg, name)
        assert not hasattr(getattr(qg, module), name)
    fields = {f.name for f in dataclasses.fields(qg.WalkSeries)}
    assert fields == {"coefficients", "order"}
    assert "order_cap" not in inspect.signature(qg.walk_stats_to_tolerance).parameters
    assert "bond_ends" not in {f.name for f in dataclasses.fields(qg.BondSystem)}
    assert "resolution" not in {f.name for f in dataclasses.fields(qg.Sweep)}
