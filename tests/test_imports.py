"""The tests, the CLI, the metrics and the scripts import only public names
of the library and read or ``setattr`` no private name off its modules but
the 24 that `PRIVATE_READS` pins, all by the tests; no module imports a
name it does not use, and every private top-level name of the library is
read somewhere in it."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "qdrepeater"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Every ``_``-prefixed name imported from the qdrepeater package.

    A relative import (``from .protocols import _x``) is read as one from the
    package: only the package's own modules use them.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("qdrepeater", node.module))) if node.level else node.module
            parts = (module or "").split(".")
            if parts[0] == "qdrepeater":
                found += [".".join(parts[:i + 1]) for i, p in enumerate(parts) if i and _is_private(p)]
                found += [f"{module}.{a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qdrepeater" and any(_is_private(p) for p in parts[1:]):
                    found.append(alias.name)
    return found


def _scan(files) -> dict[str, list[str]]:
    found = {f.name: private_imports(f.read_text(encoding="utf-8")) for f in files}
    return {name: names for name, names in found.items() if names}


def test_scan_flags_private_imports():
    assert private_imports("from qdrepeater.protocols import pcd, _helper") == ["qdrepeater.protocols._helper"]
    assert private_imports("def f():\n    import qdrepeater._impl\n") == ["qdrepeater._impl"]
    assert private_imports("from qdrepeater import __version__, pcd") == []


def test_scan_flags_relative_private_imports():
    assert private_imports("from .protocols import pcd, _extension_maps") == [
        "qdrepeater.protocols._extension_maps"]
    assert private_imports("from . import _impl") == ["qdrepeater._impl"]
    assert private_imports("from ._impl import pcd") == ["qdrepeater._impl"]
    assert private_imports("from .protocols import pcd") == []


def test_tests_import_no_private_names():
    files = sorted(TESTS.glob("*.py"))
    assert files
    assert _scan(files) == {}


def _cli_metrics_and_scripts() -> list[pathlib.Path]:
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    return [PACKAGE / "cli.py", PACKAGE / "metrics.py", *scripts]


def test_cli_metrics_and_scripts_import_no_private_names():
    assert _scan(_cli_metrics_and_scripts()) == {}


def private_attribute_reads(source: str, modules) -> list[str]:
    """Every ``_``-prefixed attribute read off a name bound to a qdrepeater
    module, as ``qdrepeater.module._name``; ``modules`` are the package's
    module names.  A name is bound by ``import qdrepeater[.m] [as x]`` or by
    ``from qdrepeater import m [as x]`` (``from . import m`` inside the package).
    A ``setattr`` call (``monkeypatch.setattr`` too) reaches the same way into
    its target: a bound module and a string ``"_name"``, or one dotted string
    ``"qdrepeater.module._name"``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or "qdrepeater": a.name if a.asname else "qdrepeater"
                          for a in node.names if a.name.split(".")[0] == "qdrepeater"})
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((0, "qdrepeater"), (1, None)):
            bound.update({a.asname or a.name: f"qdrepeater.{a.name}" for a in node.names if a.name in modules})
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            path, base = [], node.value
            while isinstance(base, ast.Attribute):
                path.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append(".".join([bound[base.id], *path, node.attr]))
        elif isinstance(node, ast.Call) and "setattr" in (getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None)):
            target = [a.value if isinstance(a, ast.Constant) else a for a in node.args[:2]]
            if len(target) == 2 and isinstance(target[0], ast.Name) and target[0].id in bound and \
                    isinstance(target[1], str) and _is_private(target[1]):
                found.append(f"{bound[target[0].id]}.{target[1]}")
            elif target and isinstance(target[0], str) and target[0].split(".")[0] == "qdrepeater" and \
                    _is_private(target[0].split(".")[-1]):
                found.append(target[0])
    return sorted(found)


def test_scan_flags_private_attribute_reads():
    modules = {"protocols", "cli"}
    source = ("from qdrepeater import protocols, pcd\nimport qdrepeater.cli as c\nimport qdrepeater.qstate\n"
              "protocols._a()\nx = c._b\nqdrepeater.qstate._c\npcd._d\nprotocols.__doc__\nself._e\n")
    assert private_attribute_reads(source, modules) == [
        "qdrepeater.cli._b", "qdrepeater.protocols._a", "qdrepeater.qstate._c"]
    assert private_attribute_reads("from . import protocols\nprotocols._x\n", modules) == [
        "qdrepeater.protocols._x"]
    assert private_attribute_reads("from .protocols import pcd\npcd._x\n", modules) == []


def test_scan_flags_private_setattr_targets():
    modules = {"protocols", "timebin"}
    source = ("from qdrepeater import protocols as p\nimport os\n"
              "monkeypatch.setattr(p, '_a', f)\nsetattr(p, '_b', f)\nmonkeypatch.setattr(p, 'c', f)\n"
              "monkeypatch.setattr('qdrepeater.timebin._d', f)\nmonkeypatch.setattr('qdrepeater.timebin.e', f)\n"
              "monkeypatch.setattr(os, '_f', f)\nmonkeypatch.setattr(p, name, f)\nmonkeypatch.setattr(p)\nsetattr()\n")
    assert private_attribute_reads(source, modules) == [
        "qdrepeater.protocols._a", "qdrepeater.protocols._b", "qdrepeater.timebin._d"]


#: every private name the tests, the CLI, the metrics and the scripts read
#: off a library module; a new reach-in fails here, and so does a stale
#: entry, so the list is exact.  `_normalized_ensemble` is read because the
#: pooling lost its public route with `heralded_ensemble`; it leaves `src/`
#: with the pooling itself (ROADMAP item 2).  `_purify` is read to hold
#: `purify_round` to the chain's round, `_BELL`, `_BELL_SIGNS` and
#: `_PARITY_RULE` to check they are read-only; `_distribution_outcomes`, `_gate_product`,
#: `_apply_instrument` and `_eigen_ensemble` are replaced by ``monkeypatch`` to
#: show that a path never reaches them.
PRIVATE_READS = [
    "qdrepeater.cli._read_config", "qdrepeater.protocols._BELL",
    "qdrepeater.protocols._BELL_PAIRS", "qdrepeater.protocols._BELL_SIGNS",
    "qdrepeater.protocols._PARITY_RULE",
    "qdrepeater.protocols._apply_instrument", "qdrepeater.protocols._bell_correction",
    "qdrepeater.protocols._bell_weights", "qdrepeater.protocols._distribution_outcomes",
    "qdrepeater.protocols._eigen_ensemble", "qdrepeater.protocols._equal_upto_phase",
    "qdrepeater.protocols._extension_maps", "qdrepeater.protocols._gate_product",
    "qdrepeater.protocols._ghz_correction", "qdrepeater.protocols._instrument_tables",
    "qdrepeater.protocols._normalized_ensemble", "qdrepeater.protocols._pair_stage",
    "qdrepeater.protocols._parity_operators", "qdrepeater.protocols._path_ends",
    "qdrepeater.protocols._pattern_corrections", "qdrepeater.protocols._plus_scatter",
    "qdrepeater.protocols._purification_maps", "qdrepeater.protocols._purify",
    "qdrepeater.protocols._splice",
]


def test_private_attribute_reads_are_pinned():
    modules = {f.stem for f in PACKAGE.glob("*.py")}
    files = [*sorted(TESTS.glob("*.py")), *_cli_metrics_and_scripts()]
    found = {name for f in files for name in private_attribute_reads(f.read_text(encoding="utf-8"), modules)}
    assert sorted(found) == PRIVATE_READS


def unused_imports(source: str) -> list[str]:
    """Every name an import binds that the module never reads.

    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.  Only a
    name loaded counts as a read: an assignment or annotation target of the
    same name, such as a field ``fidelity: float``, reads nothing.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)})


def test_scan_flags_unused_imports():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []
    assert unused_imports("from x import y, z as w\ndef f(q: w): return q\n") == ["y"]
    assert unused_imports("from x import fidelity\nclass C:\n    fidelity: float | None\n") == ["fidelity"]
    assert unused_imports("from x import y, z\ny = 1\ndel z\n") == ["y", "z"]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports only to re-export
    files = [f for d in ("src", "tests", "scripts") for f in sorted((ROOT / d).rglob("*.py"))
             if f.name != "__init__.py"]
    assert len(files) > 20
    found = {f.name: unused_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(tree, name: str, skip) -> bool:
    """Whether ``tree`` names ``name`` (as a name, an attribute or an import) outside the node ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if name in (getattr(node, "id", None), getattr(node, "attr", None)) or \
                (isinstance(node, ast.alias) and node.name == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Every private top-level name of a module that no module reads
    outside the statement defining it, as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    return sorted(f"{module}.{name}" for module, tree in trees.items() for node in tree.body
                  for name in _defined_names(node)
                  if _is_private(name) and not any(_reads(t, name, node) for t in trees.values()))


def test_scan_flags_unreferenced_private_names():
    sources = {
        "a": "_read = 1\n_orphan = 2\n_x, _y = 3, 4\nclass _Attr: pass\n"
             "def _recursive(n):\n    return _recursive(n)\n"
             "def _imported(): pass\ndef public():\n    return _read + _x\n",
        "b": "import a\nfrom a import _imported\na._Attr()\n",
    }
    assert unreferenced_private_names(sources) == ["a._orphan", "a._recursive", "a._y"]


def test_library_reads_every_private_name_it_defines():
    files = sorted((ROOT / "src" / "qdrepeater").glob("*.py"))
    assert len(files) > 5
    assert unreferenced_private_names({f.stem: f.read_text(encoding="utf-8") for f in files}) == []


#: every name ``qdrepeater/__init__.py`` imports; a change to the public
#: surface shows up as a change to this list
PUBLIC_NAMES = [
    "CavityParams", "ChainReport", "ChainScenario", "CrosscheckReport", "DistributionMetrics",
    "HeraldedOutcome", "IDEAL", "LinearMap", "NoiseChannel", "PurificationState",
    "Register", "RegisterError", "ScatterCoeffs", "SegmentSpec", "StateVector", "Subsystem",
    "apply_map", "apply_noise", "basis_state", "channel_mixing_weight", "crosscheck", "decode",
    "distribute_bell", "distribute_ghz", "distribution_metrics", "encode", "extend_chain",
    "fidelity", "full_coeffs", "ghz_state", "pcd", "pcd_metrics", "phi_minus",
    "phi_plus", "photon_register", "probability_sum", "purify_analytic", "purify_round",
    "resonant_coeffs", "run_chain", "scatter_map", "spin_register", "superposition",
    "tensor",
]


def test_public_names_are_pinned():
    tree = ast.parse((ROOT / "src" / "qdrepeater" / "__init__.py").read_text(encoding="utf-8"))
    imported = sorted(alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert imported == PUBLIC_NAMES
