"""Repository benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {chain,ghz,cli-sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ``qdrepeater`` is imported from its
``src/``.  Each batch runs in a fresh process (``worker.py``), one process
at a time, and the run keeps starting batches until S seconds have passed
(at least ``MIN_BATCHES``).  Nothing else runs alongside: one caller, a
closed loop.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's batches: ``wall_s``, ``largest_task_s``, ``call_p50_ms``,
``call_p90_ms``, ``peak_rss_mb`` and ``setup_s``.  Times are scaled to a
reference host speed measured by a probe around every task (see
``corrected``); the raw medians go into the metadata line.

``--trace 1`` alternates untraced and traced batches, both probing only
between tasks, and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``.  It also
checks that traced and untraced batches give identical outputs and that
every call count repeats exactly between traced batches.  The spans of the
first traced batch go to ``perfbench/out/<workload>.trace.jsonl``.

Standard error gets a readable summary; the last line of standard output is
the result object, and the line before it the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qdrepeater"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import BLAS_SHARE, PROBE_REF_S, WORKLOADS  # noqa: E402

MIN_BATCHES = 3
#: Later claims must also hold on this seed; do not use it while tuning.
HELD_OUT_SEED = 7919

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Metric name -> unit, as declared in BENCHMARK.json.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, spans: pathlib.Path | None = None) -> dict:
    """Start one fresh worker, wait for it, and return its record plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    t_spawn = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared by both processes
    record["setup_s"] = record["t_first"] - t_spawn
    return record


def corrected(record: dict) -> list[float]:
    """Task times of one batch at the reference host speed.

    Other tenants of the host slow everything down by up to 2x, in phases
    that last from seconds to minutes.  The worker times fixed probes
    between tasks and every 0.1 s during them.  A task's speed is its mean
    probe time over ``PROBE_REF_S``, with the BLAS probe weighted by the
    task kind's ``BLAS_SHARE``; its time is divided by that speed.
    """
    ref, ref_blas = PROBE_REF_S
    out = []
    for kind, t, p, b in zip(record["kinds"], record["task_s"], record["probe_s"],
                             record["blas_s"]):
        w = BLAS_SHARE.get(kind, 0.0)
        out.append(t / ((1.0 - w) * p / ref + w * b / ref_blas))
    return out


def batch_wall(record: dict) -> float:
    return sum(corrected(record))


def end_to_end(records: list[dict]) -> dict:
    """End-to-end metrics of a run's batches, each a median over the batches.

    Every batch runs the same calls in the same order, so each call's
    latency is its median over the batches; the percentiles and
    ``largest_task_s`` are taken over those per-call latencies.
    """
    per_batch = [corrected(r) for r in records]
    calls = [statistics.median(times) for times in zip(*per_batch)]
    deciles = statistics.quantiles(calls, n=10, method="inclusive")
    kinds, largest_kind = records[0]["kinds"], records[0]["largest"]
    values = {
        "wall_s": statistics.median(sum(b) for b in per_batch),
        "largest_task_s": statistics.median(t for k, t in zip(kinds, calls) if k == largest_kind),
        "call_p50_ms": deciles[4] * 1e3,
        "call_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S[0] / r["first_probe_s"]
                                     for r in records),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def raw_figures(records: list[dict]) -> dict:
    """Uncorrected medians, recorded beside the metrics for reference."""
    return {
        "raw_wall_s": statistics.median(sum(r["task_s"]) for r in records),
        "raw_setup_s": statistics.median(r["setup_s"] for r in records),
        "probe_s": statistics.median(p for r in records for p in r["probe_s"]),
        "batches": len(records),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced batches, and the self-check problems."""
    problems = []
    reference_outputs = plain[0]["outputs"]
    for r in plain + traced:
        if r["outputs"] != reference_outputs:
            problems.append("traced and untraced batches gave different outputs")
            break
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced batches of one seed")
    values = {"trace.overhead_s": statistics.median(batch_wall(r) for r in traced)
              - statistics.median(batch_wall(r) for r in plain)}
    for name in PER_LAYER:
        vals = [r["layers"].get(name, 0) for r in traced]
        values.setdefault(name, statistics.median(vals) if name.endswith("_s") else vals[0])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, problems


def metadata(workload: str, seed: int, trace: bool, records: list[dict]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        git = None
    lines = git.stdout.split() if git is not None and git.returncode == 0 else []
    if len(lines) == 2 and pathlib.Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(PACKAGE.glob("*.py")))
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines,
        **raw_figures(records),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no program source at {PACKAGE}", file=sys.stderr)
        return 2

    start = perf_counter()
    plain, traced = [], []
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{args.workload}.trace.jsonl"
            while len(traced) < 2 or perf_counter() - start < args.seconds:
                plain.append(run_worker(args.workload, args.seed, "plain"))
                traced.append(run_worker(args.workload, args.seed, "traced",
                                         spans if not traced else None))
        else:
            while len(plain) < MIN_BATCHES or perf_counter() - start < args.seconds:
                plain.append(run_worker(args.workload, args.seed, "timed"))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = plain + traced
    failures = [f for r in records for f in r["failures"]]
    attempted = sum(len(r["task_s"]) for r in records)
    problems = []
    if args.trace:
        metrics, problems = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)
    for msg in failures[:10] + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(records)} batches, {attempted} tasks, "
          f"failed_frac {len(failures) / attempted:.4g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)

    print(json.dumps({"meta": metadata(args.workload, args.seed, bool(args.trace), records)}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
