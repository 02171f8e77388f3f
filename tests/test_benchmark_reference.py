"""Every `chain` and `ghz` variant the benchmark can draw matches
`perfbench/reference.json` under the benchmark's own check, and the
`cli-sweep` calls of seed 1 pass that workload's check, in any order and
mixed with other calls in one process.  The `chain` variants' stages and
final states are also held to the 4x4 density-matrix chain of
`dense_oracle.run_chain_rho`.

`perfbench/workloads.py` is read and executed in a fresh module, so nothing
is written under `perfbench/` (no bytecode cache either).  A change that moves
a reference output past the benchmark's tolerance fails here first.
"""

import json
import pathlib
import random
import types

import numpy as np
import pytest

from qdrepeater.protocols import ChainScenario, SegmentSpec, run_chain

from dense_oracle import run_chain_rho

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


def _chain_scenario(task):
    """The scenario `run_chain_task` builds from a `chain` variant."""
    return ChainScenario(
        nodes={name: WORKLOADS._coeffs(kind) for name, kind in task["nodes"].items()},
        segments=[SegmentSpec(name, left, right, WORKLOADS._noise(nl), WORKLOADS._noise(nr))
                  for name, left, right, nl, nr in task["segments"]],
        purify_rounds=task["rounds"], eta_in=task["eta_in"])


_TWO_ROUND_POOLING = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 1a and 2: purification's pooling, the one lossy step left in these chains, "
    "merges members equal up to numpy's rtol 1e-5, which moves the two-round chains by up to "
    "5.8e-8 in a stage probability and 5.7e-9 in a fidelity from the exact 4x4 mixture"))


@pytest.mark.parametrize("slot", [
    pytest.param(slot, id="{}x{}".format(*spec[:2]), marks=_TWO_ROUND_POOLING if spec[1] == 2 else ())
    for slot, spec in enumerate(WORKLOADS.CHAIN_SLOTS)])
def test_chain_variants_match_the_density_matrix_oracle(slot):
    for variant in range(WORKLOADS.CHAIN_POOL):
        scenario = _chain_scenario(WORKLOADS.chain_variant(slot, variant))
        report, (exact, rho) = run_chain(scenario), run_chain_rho(scenario)
        assert [(st.stage, st.label) for st in report.stages] == [(st.stage, st.label) for st in exact]
        for got, want in zip(report.stages, exact):
            assert got.probability == pytest.approx(want.probability, rel=0, abs=1e-12), (variant, got)
            assert got.fidelity == pytest.approx(want.fidelity, rel=0, abs=1e-12), (variant, got)
        assert np.max(np.abs(report.final_state - rho)) < 1e-12, variant


CLI_CALLS = WORKLOADS.cli_calls(1)     # the held-out seed 7919 stays out of the tests


@pytest.mark.parametrize("task", CLI_CALLS, ids=[task["id"] for task in CLI_CALLS])
def test_cli_call_passes_the_benchmark_check(task):
    output = WORKLOADS.RUNNERS["cli-sweep"](task)
    assert WORKLOADS.check("cli-sweep", task, output, REFERENCE) is None


#: --config files whose defaults would change a seed-1 call's output if they reached it
SHARED_PARSER_CONFIGS = {
    "cavity.ini": "[defaults]\ng = 2.0\nkappa_s = 0.25\ngamma = 0.3\ndelta = 0.1\neta_in = 0.8\n",
    "purify.ini": "[defaults]\nmu = 0.6\nrounds = 1\n",
}
#: calls mixed in among the seed-1 calls, with their exit codes: --config runs,
#: usage errors and sweeps with typed flags
SHARED_PARSER_EXTRAS = (
    (["crosscheck", "--config", "cavity.ini"], 0),
    (["distribute", "--simulate", "--config", "cavity.ini"], 0),
    (["pcd", "--simulate", "--g", "1.5", "--config", "cavity.ini"], 0),
    (["purify", "--simulate", "--config", "purify.ini"], 0),
    (["coeffs", "--config", "cavity.ini", "--kappa-s", "0.05"], 0),
    (["crosscheck", "--g", "abc"], 1),
    (["distribute", "--simulate", "--eta-in", "1.5"], 1),
    (["purify", "--rounds", "x"], 1),
    (["coeffs", "--bogus"], 1),
    (["sweep", "--quantity", "coeffs", "--gamma", "0.2", "--g-grid", "1,2"], 0),
    (["sweep", "--quantity", "purify", "--gamma", "0.2"], 1),
    (["sweep", "--quantity", "purify", "--mu-grid", "0.7"], 0),
)


def test_cli_calls_do_not_depend_on_the_calls_before_them(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in SHARED_PARSER_CONFIGS.items():
        pathlib.Path(name).write_text(text)
    run = WORKLOADS.RUNNERS["cli-sweep"]
    in_order = {task["id"]: run(task) for task in CLI_CALLS}
    mixed = CLI_CALLS + [{"id": None, "argv": argv, "code": code} for argv, code in SHARED_PARSER_EXTRAS] * 3
    random.Random(1).shuffle(mixed)
    for task in mixed:
        output = run(task)
        if task["id"] is None:
            assert output["code"] == task["code"], task["argv"]
        else:
            assert output == in_order[task["id"]], task["id"]
