"""Seeded inputs, tasks and correctness checks of the three workloads.

A workload is a fixed batch of tasks.  Its structure (which scenarios, which
n, which CLI call kinds and how many) never depends on the seed, so the work
per batch is the same for every seed; the seed only picks parameter values.

* ``chain``: ``run_chain`` on five scenario slots.  Each slot has a pool of
  variants (asymmetric fiber rotations, ``eta_in`` below 1); the seed picks
  one variant per slot.  Outputs are checked against ``reference.json``.
* ``ghz``: ``distribute_ghz`` for n = 3, 4 and 5, drawn from per-n pools of
  variants; checked against ``reference.json``.
* ``cli-sweep``: in-process ``qdrepeater.cli.main`` calls over a seeded
  (g, kappa_s) grid and mu grid; checked against the closed forms printed
  by the same calls.

Inputs are plain numbers and strings.  Each task builds the library objects
it needs (cavity coefficients, noise channels, scenarios) itself, the way a
user's script does after reading its parameters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np

WORKLOADS = ("chain", "ghz", "cli-sweep")

#: Tolerance of every correctness check.
TOL = 1e-10

#: Node kinds: I is the ideal interface, P and Q practical ones (g, kappa_s).
NODE_KINDS = {"I": None, "P": (1.2, 0.2), "Q": (2.4, 0.1)}

#: (segments, purification rounds, node kinds from left to right) per chain
#: slot.  The first slot is the smallest task (the warm-up), the last the
#: largest.  A segment from a practical node into an ideal one (Q -> I)
#: heralds a rank-2 mixture, whose ensemble keeps 0 to 2 extra members of
#: weight ~1e-17 depending on rounding; that changes the slot's work by up
#: to 15% from one seed to another.  The 3x0 and 4x1 slots keep such a
#: segment, so the cost shows; the middle slot, whose time is the per-call
#: median, has none, so the median does not depend on the seed.
CHAIN_SLOTS = ((2, 0, "IPQ"), (3, 0, "PQIP"), (2, 1, "IPQ"), (2, 2, "IPQ"), (4, 1, "PQIPQ"))
CHAIN_POOL = 6

#: (n, tasks per batch, pool size).  The batch runs n = 3, then 4, then 5,
#: so the per-n correction table is filled by the first task of each n,
#: inside the timed batch.  With 20 + 4 + 1 tasks the median lies among the
#: n = 3 tasks and the 90th percentile among the n = 4 tasks.
GHZ_PLAN = ((3, 20, 48), (4, 4, 12), (5, 1, 3))

#: cli-sweep: grid points per batch.  Each point gets two crosschecks
#: (at two (g, kappa_s) values), one distribute, one pcd and one purify
#: call, so the calls are 20% pcd, 20% distribute, 40% crosscheck and 20%
#: purify.  Sorted by cost, the median lies inside the crosscheck calls and
#: the 90th percentile inside the purify calls.
CLI_POINTS = 24
PURIFY_ROUNDS = 3

#: Reference times of the host-speed probes ``worker.probe`` and
#: ``worker.probe_blas``: their times in the fast phases of a 2-core Xeon
#: KVM guest at 2.0 GHz.  Timings are reported at that speed.
PROBE_REF_S = (0.006, 0.005)

#: Task kinds whose speed estimate gives the BLAS probe this share.  GHZ-4
#: and GHZ-5 spend much of their time in BLAS on large registers, which a
#: tenant on the second core slows more than single-threaded code; for the
#: other tasks the BLAS probe only adds noise.
BLAS_SHARE = {"n4": 0.5, "n5": 0.5}

_SALT = 0x51D


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rotation(rng, asymmetric: bool) -> tuple:
    """Fiber rotation as (delta, eta) or (delta, eta, delta_l, eta_l), complex."""
    def one():
        theta, pd, pe = rng.uniform(0.0, 2.0 * math.pi, size=3)
        return complex(math.cos(theta) * np.exp(1j * pd)), complex(math.sin(theta) * np.exp(1j * pe))
    early = one()
    return early + one() if asymmetric else early


def chain_variant(slot: int, variant: int) -> dict:
    segments, rounds, kinds = CHAIN_SLOTS[slot]
    rng = np.random.default_rng([_SALT, 1, slot, variant])
    nodes = [f"n{i}" for i in range(segments + 1)]
    return {
        "id": f"chain-{segments}x{rounds}-v{variant}",
        "nodes": {nm: NODE_KINDS[k] for nm, k in zip(nodes, kinds)},
        "segments": [(f"s{i}", nodes[i], nodes[i + 1],
                      _rotation(rng, True), _rotation(rng, True)) for i in range(segments)],
        "rounds": rounds,
        "eta_in": float(rng.uniform(0.8, 0.99)),
    }


def ghz_variant(n: int, variant: int) -> dict:
    """One asymmetric fiber per task, the rest collective; node kinds rotate."""
    rng = np.random.default_rng([_SALT, 2, n, variant])
    return {
        "id": f"ghz{n}-v{variant}",
        "n": n,
        "noise": [_rotation(rng, i == variant % n) for i in range(n)],
        "nodes": [NODE_KINDS["IPQ"[(variant + i) % 3]] for i in range(n)],
        "eta_in": float(rng.uniform(0.8, 0.99)),
    }


def _num(x: float) -> str:
    return repr(float(x))


def cli_calls(seed: int) -> list[dict]:
    rng = np.random.default_rng([_SALT, 3, seed])
    calls = []
    for i in range(CLI_POINTS):
        points = [(float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.0, 0.3))) for _ in range(2)]
        mu = float(rng.uniform(0.55, 0.95))
        for g, ks in points:
            calls.append({"id": f"crosscheck-{i}-{len(calls)}", "kind": "crosscheck",
                          "argv": ["crosscheck", "--g", _num(g), "--kappa-s", _num(ks)]})
        g, ks = points[0]
        for kind in ("distribute", "pcd"):
            calls.append({"id": f"{kind}-{i}", "kind": kind,
                          "argv": [kind, "--simulate", "--g", _num(g), "--kappa-s", _num(ks)]})
        calls.append({"id": f"purify-{i}", "kind": "purify",
                      "argv": ["purify", "--simulate", "--rounds", str(PURIFY_ROUNDS), "--mu", _num(mu)]})
    return calls


def make_inputs(workload: str, seed: int) -> dict:
    """The batch for ``workload`` and ``seed``, plus its warm-up task.

    ``largest`` names the kind whose task times give ``largest_task_s``.
    """
    if workload == "chain":
        rng = np.random.default_rng([_SALT, 0, seed])
        tasks = [dict(chain_variant(s, int(rng.integers(CHAIN_POOL))), kind=f"{seg}x{r}")
                 for s, (seg, r, _) in enumerate(CHAIN_SLOTS)]
        largest = "{}x{}".format(*CHAIN_SLOTS[-1][:2])
        return {"tasks": tasks, "warmup": tasks[0], "largest": largest}
    if workload == "ghz":
        rng = np.random.default_rng([_SALT, 0, seed])
        tasks = []
        for n, count, pool in GHZ_PLAN:
            for v in rng.choice(pool, size=count, replace=False):
                tasks.append(dict(ghz_variant(n, int(v)), kind=f"n{n}"))
        # n = 2 is smaller than any batch task and fills no table the batch uses
        warmup = dict(ghz_variant(2, 0), kind="n2")
        return {"tasks": tasks, "warmup": warmup, "largest": f"n{GHZ_PLAN[-1][0]}"}
    if workload == "cli-sweep":
        tasks = cli_calls(seed)
        return {"tasks": tasks, "warmup": tasks[0], "largest": "purify"}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# tasks: each returns a JSON-serialisable output.  They import qdrepeater
# when called, because run.py imports this module without the program.
# ---------------------------------------------------------------------------

def _coeffs(kind):
    from qdrepeater import cavity
    if kind is None:
        return cavity.IDEAL
    g, ks = kind
    return cavity.resonant_coeffs(cavity.CavityParams(g=g, kappa_s=ks))


def _noise(rot):
    from qdrepeater.timebin import NoiseChannel
    return NoiseChannel(*rot)


def run_chain_task(task: dict) -> dict:
    from qdrepeater import protocols
    scenario = protocols.ChainScenario(
        nodes={nm: _coeffs(kind) for nm, kind in task["nodes"].items()},
        segments=[protocols.SegmentSpec(name, left, right, _noise(nl), _noise(nr))
                  for name, left, right, nl, nr in task["segments"]],
        purify_rounds=task["rounds"],
        eta_in=task["eta_in"],
    )
    report = protocols.run_chain(scenario)
    labels, values = [], []
    for st in report.stages:
        labels.append(f"{st.stage}:{st.label}")
        values.extend([st.probability, st.fidelity])
    labels.append("total")
    values.extend([report.total_probability, report.final_fidelity])
    return {"labels": labels, "values": values}


def run_ghz_task(task: dict) -> dict:
    from qdrepeater import protocols
    outcomes = protocols.distribute_ghz(
        task["n"], [_noise(r) for r in task["noise"]],
        [_coeffs(k) for k in task["nodes"]], eta_in=task["eta_in"])
    labels, values = [], []
    for o in outcomes:
        labels.append(o.detection)
        values.extend([o.probability, o.fidelity])
    return {"labels": labels, "values": values}


def run_cli_task(task: dict) -> dict:
    from qdrepeater import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(task["argv"]))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RUNNERS = {"chain": run_chain_task, "ghz": run_ghz_task, "cli-sweep": run_cli_task}


# ---------------------------------------------------------------------------
# correctness checks: each returns None when the output is correct, else why
# ---------------------------------------------------------------------------

def reference_entry(output: dict) -> dict:
    """What ``reference.json`` keeps of an output: a digest of the branch
    labels and every value to 13 significant digits."""
    digest = hashlib.sha1("\n".join(output["labels"]).encode()).hexdigest()
    return {"labels_sha1": digest,
            "values": [None if v is None else float(f"{v:.13g}") for v in output["values"]]}


def check_reference(task: dict, output: dict, reference: dict) -> str | None:
    ref = reference.get(task["id"])
    if ref is None:
        return f"no reference for {task['id']}"
    got_entry = reference_entry(output)
    if got_entry["labels_sha1"] != ref["labels_sha1"] or len(output["values"]) != len(ref["values"]):
        return "branch labels differ from the reference"
    for got, want in zip(output["values"], ref["values"]):
        if (got is None) != (want is None) or (got is not None and abs(got - want) > TOL):
            return f"value {got} differs from reference {want}"
    return None


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if "," in ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def check_cli(task: dict, output: dict) -> str | None:
    if output["code"] != 0:
        return f"exit code {output['code']}: {output['stderr'].strip()}"
    text = output["stdout"]
    kind = task["kind"]
    if kind == "crosscheck":
        _, rows = _csv(text)
        if rows[-1][0] != "max_deviation" or not float(rows[-1][-1]) < TOL:
            return f"crosscheck deviation {rows[-1][-1]}"
    elif kind in ("distribute", "pcd"):
        header, rows = _csv(text)
        eta = float(rows[0][header.index("eta_d" if kind == "distribute" else "eta_p")])
        total = [ln for ln in text.splitlines() if ln.startswith("heralded total")]
        heralded = float(total[0].split()[2])
        if abs(heralded - eta) > TOL:
            return f"heralded total {heralded} differs from eta {eta}"
    elif kind == "purify":
        header, rows = _csv(text)
        mu, sim = header.index("mu"), header.index("mu_simulated")
        if len(rows) != PURIFY_ROUNDS:
            return f"{len(rows)} purify rows, expected {PURIFY_ROUNDS}"
        for row in rows:
            if abs(float(row[mu]) - float(row[sim])) > TOL:
                return f"simulated mu {row[sim]} differs from recursion {row[mu]}"
    return None


def check(workload: str, task: dict, output: dict, reference: dict) -> str | None:
    if workload == "cli-sweep":
        return check_cli(task, output)
    return check_reference(task, output, reference)
