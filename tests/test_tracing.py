"""The benchmark's tracer wraps every layer of the package and restores it.

`perfbench/tracing.py` imports each layer module by name and wraps the
`__post_init__` of `StateVector` and `LinearMap`; a refactor that drops a
layer module or one of those constructor hooks breaks traced benchmark runs,
and this test first.
"""

import pathlib

from qdrepeater import qstate

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
