"""Checks that the benchmark's own gates fire.

    python3 perfbench/selfcheck.py [--seed N]

1. A chain batch run against a reference with one value moved by 1e-6
   fails a task, so ``failed_frac`` is above 0; the same batch against
   the recorded reference fails none.
2. A cli-sweep output with its heralded total altered fails its check.
3. ``run.py --trace 1`` on chain and on cli-sweep reports ``correct``:
   traced and untraced batches gave identical outputs, and every call count
   repeated exactly between two traced batches of one seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys

from worker import HERE, _import_program, load_reference, run_batch
from workloads import check_cli, cli_calls, make_inputs, run_cli_task


def perturbed_reference_fires(seed: int) -> bool:
    inputs = make_inputs("chain", seed)
    reference = load_reference()
    clean = run_batch("chain", inputs, reference)
    bad = copy.deepcopy(reference)
    bad[inputs["tasks"][0]["id"]]["values"][0] += 1e-6
    perturbed = run_batch("chain", inputs, bad)
    frac = len(perturbed["failures"]) / len(inputs["tasks"])
    print(f"chain seed {seed}: failed_frac {len(clean['failures']) / len(inputs['tasks'])} "
          f"with the recorded reference, {frac:.3g} with one value moved by 1e-6")
    return not clean["failures"] and frac > 0


def altered_cli_output_fires(seed: int) -> bool:
    call = next(c for c in cli_calls(seed) if c["kind"] == "distribute")
    output = run_cli_task(call)
    good = check_cli(call, output)
    lines = output["stdout"].splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("heralded total"))
    parts = lines[i].split()
    parts[2] = repr(float(parts[2]) + 1e-6)
    lines[i] = " ".join(parts)
    bad = check_cli(call, dict(output, stdout="\n".join(lines) + "\n"))
    print(f"cli distribute: check {'passes' if good is None else 'FAILS'} on the real output, "
          f"{'fails' if bad else 'PASSES'} on an altered heralded total")
    return good is None and bad is not None


def traced_run_correct(workload: str, seed: int) -> bool:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{workload}: run.py --trace 1 exited {proc.returncode}\n{proc.stderr}")
        return False
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} --trace 1: correct={result['correct']}, "
          f"failed {result['failed']} of {result['attempted']}")
    return result["correct"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    _import_program()
    ok = [perturbed_reference_fires(args.seed), altered_cli_output_fires(args.seed)]
    ok += [traced_run_correct(w, args.seed) for w in ("chain", "cli-sweep")]
    print("selfcheck", "passed" if all(ok) else "FAILED")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
