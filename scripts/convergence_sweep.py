#!/usr/bin/env python3
"""Trace the integrality ratio of G(n, d(n)) toward its 4/3 limit.

Writes two CSV series under results/ (sqrt(n-1) spacing, which converges,
and constant spacing d = 4, which stays bounded away) and prints the tail
of each series.

Usage: python scripts/convergence_sweep.py [--max-n 1000000] [--out-dir results]
"""
import argparse
import pathlib

import numpy as np

from gaplab.ratio import DRule, sweep, sweep_csv


def geometric_even_grid(lo: int, hi: int, count: int) -> list[int]:
    grid = {int(x) // 2 * 2 for x in np.geomspace(lo, hi, count)}
    return sorted(v for v in grid if v >= lo)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=1_000_000)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    grid = geometric_even_grid(18, args.max_n, 80)

    for rule in (DRule.parse("sqrt-n-1"), DRule.parse("const:4")):
        reports = sweep(grid, rule)
        path = args.out_dir / f"ratio_{rule.name.replace(':', '')}.csv"
        path.write_text(sweep_csv(reports))
        tail = reports[-1]
        print(f"{rule.name:>12}: {len(reports)} rows -> {path}")
        print(f"{'':>12}  ratio(n={tail.n}) = {tail.ratio_numeric:.9f} "
              f"(4/3 - ratio = {4 / 3 - tail.ratio_numeric:+.2e})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
