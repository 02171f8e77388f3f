"""Every `chain` and `ghz` variant the benchmark can draw matches
`perfbench/reference.json` under the benchmark's own check, and the
`cli-sweep` calls of seed 1 pass that workload's check.

`perfbench/workloads.py` is read and executed in a fresh module, so nothing
is written under `perfbench/` (no bytecode cache either).  A change that moves
a reference output past the benchmark's tolerance fails here first.
"""

import json
import pathlib
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
VARIANTS = ([("chain", WORKLOADS.chain_variant(slot, v))
             for slot in range(len(WORKLOADS.CHAIN_SLOTS)) for v in range(WORKLOADS.CHAIN_POOL)]
            + [("ghz", WORKLOADS.ghz_variant(n, v)) for n, _, pool in WORKLOADS.GHZ_PLAN for v in range(pool)])


def test_every_reference_entry_is_a_variant():
    assert sorted(task["id"] for _, task in VARIANTS) == sorted(REFERENCE)
    assert len(VARIANTS) == 93


@pytest.mark.parametrize("workload,task", VARIANTS, ids=[task["id"] for _, task in VARIANTS])
def test_variant_matches_the_benchmark_reference(workload, task):
    output = WORKLOADS.RUNNERS[workload](task)
    assert WORKLOADS.check(workload, task, output, REFERENCE) is None


CLI_CALLS = WORKLOADS.cli_calls(1)     # the held-out seed 7919 stays out of the tests


@pytest.mark.parametrize("task", CLI_CALLS, ids=[task["id"] for task in CLI_CALLS])
def test_cli_call_passes_the_benchmark_check(task):
    output = WORKLOADS.RUNNERS["cli-sweep"](task)
    assert WORKLOADS.check("cli-sweep", task, output, REFERENCE) is None
