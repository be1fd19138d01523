"""Public API integrity: every export resolves, removed names stay removed."""

import dataclasses
import inspect

import qgraph as qg

# Names that left the public API; an export that brings one back is stale.
REMOVED = ("walk_stats",)


def test_every_export_resolves_to_a_package_object():
    assert len(set(qg.__all__)) == len(qg.__all__)
    for name in qg.__all__:
        obj = getattr(qg, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__.startswith("qgraph."), name
            module = inspect.getmodule(obj)
            assert getattr(module, obj.__name__) is obj, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in qg.__all__
        assert not hasattr(qg, name)
        assert not hasattr(qg.walks, name)
    fields = {f.name for f in dataclasses.fields(qg.WalkSeries)}
    assert fields == {"coefficients", "order"}
    assert "order_cap" not in inspect.signature(qg.walk_stats_to_tolerance).parameters
