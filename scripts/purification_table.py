#!/usr/bin/env python3
"""Purification weight per round, analytic recursion next to full simulation.

Runs `qdrepeater purify --simulate` for several starting weights, prints
their rows as one table and writes it to results/purification_rounds.csv,
with the CLI's columns and cells: `mu` is the recursion, and `mu_simulated`
replays every round through the two parity checks as one Bell-basis step of
`purify_round` on the two copies and must agree with it to full precision:
the script exits with status 1, naming the row, when a row's `mu_simulated`
is off `mu` by more than 1e-10 relative, and writes no table.
"""

import contextlib
import io
import pathlib
import sys

from qdrepeater.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"
#: the largest relative gap a row's simulated weight may leave to the recursion
RTOL = 1e-10


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
    names = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        mu, simulated = float(row["mu"]), float(row["mu_simulated"])
        if not abs(simulated - mu) <= RTOL * abs(mu):
            print(f"mu0 {row['mu0']}, round {row['round']}: mu_simulated {row['mu_simulated']} is off "
                  f"mu {row['mu']} by more than {RTOL:g} relative", file=sys.stderr)
            return 1
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    target = OUT / "purification_rounds.csv"
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
