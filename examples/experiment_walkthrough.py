#!/usr/bin/env python3
"""Drive the claim-validation experiments programmatically.

Every experiment of EXPERIMENTS.md is a library call (`repro.experiments`):
``run_single`` for one configuration, ``units`` for the sweep (run it with
``run_units``), ``check`` for the paper's acceptance criteria.  This
walkthrough runs three of them at reduced size and prints their tables —
the same rows the pytest benches persist under ``benchmarks/results/``.

Run:  python examples/experiment_walkthrough.py
"""

from repro.analysis import format_table
from repro.experiments import (
    REGISTRY,
    exp05_tdma_mac,
    exp07_palette_reduction,
    exp10_physical_sweep,
    run_units,
)


def main() -> None:
    print("registered experiments:", ", ".join(sorted(REGISTRY)), "\n")

    # EXP-5: the Theorem 3 TDMA story on one seed.
    rows = exp05_tdma_mac.run_single(seed=0)
    print(format_table(rows, columns=exp05_tdma_mac.COLUMNS,
                       title=exp05_tdma_mac.TITLE))
    exp05_tdma_mac.check(rows)
    print("EXP-5 check passed\n")

    # EXP-7: palette reduction to Delta+1.
    rows = run_units(exp07_palette_reduction.__name__,
                     exp07_palette_reduction.units(seeds=[0]))
    print(format_table(rows, columns=exp07_palette_reduction.COLUMNS,
                       title=exp07_palette_reduction.TITLE))
    exp07_palette_reduction.check(rows)
    print("EXP-7 check passed\n")

    # EXP-10: closed-form geometry across two physical corners.
    rows = [
        exp10_physical_sweep.run_single(alpha, beta)
        for alpha in (3.0, 6.0)
        for beta in (1.0, 2.0)
    ]
    print(format_table(rows, columns=exp10_physical_sweep.COLUMNS,
                       title=exp10_physical_sweep.TITLE))
    exp10_physical_sweep.check(rows)
    print("EXP-10 check passed\n")

    print("OK — three experiments reproduced via the library API.")


if __name__ == "__main__":
    main()
