"""The benchmark's tracer wraps every layer of the package and restores it.

`perfbench/tracing.py` imports each layer module by name and wraps the
`__post_init__` of `StateVector` and `LinearMap`; a refactor that drops a
layer module or one of those constructor hooks breaks traced benchmark runs,
and this test first.  The tracer wraps only plain public functions, so every
per-function counter that `BENCHMARK.json` lists must name one: a cache put
in front of a public name would read 0 there.
"""

import importlib
import inspect
import json
import pathlib

from qdrepeater import qstate, scatter
from qdrepeater.cavity import IDEAL

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = {cls: cls.__post_init__ for cls in (qstate.StateVector, qstate.LinearMap)}
    apply_map = qstate.apply_map
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qstate.StateVector.__post_init__ is not originals[qstate.StateVector]
        qstate.apply_map(qstate.basis_state(qstate.Register((qstate.Subsystem("s", ("up", "dn")),))),
                         qstate.sigma_x(), ["s"])
    finally:
        tracer.uninstall()
    assert {cls: cls.__post_init__ for cls in originals} == originals
    assert qstate.apply_map is apply_map
    summary = tracer.summary()
    assert summary["qstate.apply_map.calls"] == 1
    assert summary["qstate.StateVector.calls"] >= 2
    assert summary["qstate.LinearMap.calls"] == 1


#: constructor spans, which the test above covers
CONSTRUCTOR_SPANS = {"qstate.StateVector", "qstate.LinearMap"}
#: counters of functions that no longer exist in the package (ROADMAP item 1)
STALE_COUNTERS = {"protocols.heralded_ensemble", "qstate.allclose_upto_phase", "qstate.measure", "scatter.scatter"}


def _function_counters():
    """Every ``<layer>.<function>`` whose ``.calls`` the benchmark reports."""
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = [entry["name"].removesuffix(".calls") for entry in per_layer if entry["name"].endswith(".calls")]
    return [name for name in names if name.count(".") == 1]


def test_every_per_layer_function_counter_names_a_wrapped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    counters = _function_counters()
    assert CONSTRUCTOR_SPANS | STALE_COUNTERS <= set(counters)
    checked = [name for name in counters if name not in CONSTRUCTOR_SPANS | STALE_COUNTERS]
    assert len(checked) == 13
    for name in STALE_COUNTERS:
        layer, function = name.split(".")
        assert not hasattr(importlib.import_module(f"qdrepeater.{layer}"), function), f"{name} is back"
    originals = {}
    for name in checked:
        layer, function = name.split(".")
        module = importlib.import_module(f"qdrepeater.{layer}")
        # a cache in front of a public name would hide it from the tracer
        assert inspect.isfunction(getattr(module, function)), name
        originals[name] = (module, getattr(module, function))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [name for name, (module, fn) in originals.items()
                   if getattr(module, fn.__name__) is not fn]
        for _ in range(2):
            scatter.scatter_map(IDEAL)
    finally:
        tracer.uninstall()
    assert wrapped == checked
    assert tracer.summary()["scatter.scatter_map.calls"] == 2
