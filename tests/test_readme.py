"""The examples in README.md run as written, and the names it documents exist."""

import importlib
import pathlib
import re

import pytest

from qdrepeater.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _ini_block(section):
    (block,) = [b for b in _blocks("ini") if f"[{section}]" in b]
    return block


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_python_block_runs(index, capsys):
    exec(compile(_blocks("python")[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("command,flag,section", [
    ("chain", "--scenario", "chain"),
    ("photon", "--script", "script"),
])
def test_ini_block_runs(command, flag, section, tmp_path, capsys):
    path = tmp_path / f"{section}.ini"
    path.write_text(_ini_block(section), encoding="utf-8")
    assert main([command, flag, str(path)]) == 0


def test_chain_sweep_columns_match_the_cli(tmp_path, capsys):
    (documented,) = re.findall(r"writes one row per `--g-grid`\s+value with the columns `([^`]+)`", README)
    path = tmp_path / "chain.ini"
    path.write_text(_ini_block("chain"), encoding="utf-8")
    assert main(["sweep", "--quantity", "chain", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == documented


def test_supported_steps_match_the_cli(tmp_path, capsys):
    (listed,) = re.findall(r"^Supported steps: (.*?)\n\n", README, flags=re.MULTILINE | re.DOTALL)
    documented = {item.split("(")[0] for item in re.findall(r"`([^`]+)`", listed)}
    path = tmp_path / "script.ini"
    path.write_text("[script]\nsteps = teleport\n")
    assert main(["photon", "--script", str(path)]) == 1
    supported = capsys.readouterr().err.strip().split("supported steps: ")[1].split(", ")
    assert documented == set(supported)


def _layout_names():
    """(module, name) for every backticked identifier in the "Library layout" table."""
    (table,) = re.findall(r"^## Library layout\n\n(.*?)\n\n", README, flags=re.MULTILINE | re.DOTALL)
    for row in table.splitlines()[2:]:
        module_cell, contents = row.strip("|").split("|")
        (module,) = re.findall(r"`([^`]+)`", module_cell)
        yield module, module
        for quoted in re.findall(r"`([^`]+)`", contents):
            # a call signature such as `CavityParams(g, ...)` names its callable
            name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", quoted)
            if name:
                yield module, name.group(1)


def _resolve(dotted):
    """Import the longest module prefix of ``dotted`` and read the rest as attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("module,name", sorted(set(_layout_names())))
def test_library_layout_names_resolve(module, name):
    # a bare name belongs to its row's module, a dotted one to the package
    if "." not in name:
        dotted = f"{module}.{name}"
    else:
        dotted = name if name.startswith("qdrepeater.") else f"qdrepeater.{name}"
    _resolve(dotted)
