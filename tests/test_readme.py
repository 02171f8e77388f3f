"""The examples in README.md run as written."""

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


def test_supported_steps_match_the_cli(tmp_path, capsys):
    (listed,) = re.findall(r"^Supported steps: (.*?)\n\n", README, flags=re.MULTILINE | re.DOTALL)
    documented = {item.split("(")[0] for item in re.findall(r"`([^`]+)`", listed)}
    path = tmp_path / "script.ini"
    path.write_text("[script]\nsteps = teleport\n")
    assert main(["photon", "--script", str(path)]) == 1
    supported = capsys.readouterr().err.strip().split("supported steps: ")[1].split(", ")
    assert documented == set(supported)
