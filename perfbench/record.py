"""Record the reference outputs that the chain and ghz checks compare against.

    python3 perfbench/record.py

Runs every variant in the chain and ghz pools once and writes
``perfbench/reference.json``.  The file holds the outputs of the commit it
was recorded at; re-record only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, _import_program
from workloads import (CHAIN_POOL, CHAIN_SLOTS, GHZ_PLAN, chain_variant, ghz_variant,
                       reference_entry, run_chain_task, run_ghz_task)


def main() -> int:
    _import_program()
    reference = {}
    for slot in range(len(CHAIN_SLOTS)):
        for v in range(CHAIN_POOL):
            task = chain_variant(slot, v)
            reference[task["id"]] = reference_entry(run_chain_task(task))
    for n, _, pool in GHZ_PLAN:
        for v in range(pool):
            task = ghz_variant(n, v)
            reference[task["id"]] = reference_entry(run_ghz_task(task))
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {len(reference)} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
