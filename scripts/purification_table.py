#!/usr/bin/env python3
"""Purification weight per round, analytic recursion next to full simulation.

Runs `qdrepeater purify --simulate` for several starting weights, prints
their rows as one table and writes it to results/purification_rounds.csv,
with the CLI's columns and cells: `mu` is the recursion, and `mu_simulated`
replays every round through the two parity checks as one Bell-basis step of
`purify_round` on the two copies and must agree with it to full precision.
"""

import contextlib
import io
import pathlib
import sys

from qdrepeater.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def run():
    OUT.mkdir(exist_ok=True)
    lines = []
    for mu0 in ("0.6", "0.7", "0.8", "0.9"):
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            code = main(["purify", "--simulate", "--mu", mu0, "--rounds", "3"])
        if code != 0:
            return code
        header, *rows = table.getvalue().splitlines()
        lines = (lines or [header]) + rows
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    target = OUT / "purification_rounds.csv"
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
