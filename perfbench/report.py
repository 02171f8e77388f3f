"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py [--workloads chain,ghz,cli-sweep]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Calls ``run.py`` once per workload and seed, one run at a time, and prints
for each end-to-end metric its median over the seeds, its quartiles and the
quartile spread as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``failed_frac`` (failed tasks over tasks attempted,
summed over the runs) is printed per workload.  Raw results go to
``perfbench/out/report.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        a, b = spec.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    OUT.mkdir(exist_ok=True)
    status = 0
    with open(OUT / "report.jsonl", "a", encoding="utf-8") as log:
        for workload in args.workloads.split(","):
            results = []
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    status = 1
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                results.append(result)
            if not results:
                continue
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"\n{workload}: {len(results)} runs, correct={correct}, "
                  f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
            print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}")
            for name, first in results[0]["metrics"].items():
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(name)
                print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{'' if bound is None else bound:>6} {first['unit']}")
            if not correct:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
