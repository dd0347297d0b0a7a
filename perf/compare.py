"""Compare benchmark result directories written by ``perf/run.py --out``.

Usage::

    python3 perf/compare.py A_DIR [B_DIR]

For every workload x metric, prints the median and quartiles
(``statistics.quantiles(values, n=4)``) of each directory's runs.  It
flags a metric whose own spread -- interquartile range over median --
exceeds its ``BENCHMARK.json`` bound, and, given two directories, a
metric whose medians differ by more than the bound.  Exits 1 when anything is
flagged.  Per-layer metrics have no bound and are printed only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """``(workload, metric) -> [values]`` over every record in ``directory``."""
    values = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record.get("metrics", {}).items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def summary(values: list) -> tuple[float, float, float]:
    """``(median, q1, q3)``; quartiles collapse onto a lone value."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print("usage: python3 perf/compare.py A_DIR [B_DIR]", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [load(Path(d)) for d in argv]
    keys = sorted(set().union(*sets))
    flagged = 0
    header = f"{'workload':14s} {'metric':34s}" + "".join(
        f" {'median [q1, q3] ' + str(i + 1):>40s}" for i in range(len(sets))
    )
    print(header)
    for key in keys:
        workload, name = key
        bound = bounds.get(name)
        cells, flags = [], []
        for i, values in enumerate(sets):
            if key not in values:
                cells.append(f" {'-':>40s}")
                continue
            median, q1, q3 = summary(values[key])
            own = spread(values[key])
            cells.append(f" {median:12.6g} [{q1:10.6g}, {q3:10.6g}] n={len(values[key]):<2d}")
            if bound is not None and own > bound:
                flags.append(f"spread{i + 1} {own:.1%} > {bound:.0%}")
        if bound is not None and len(sets) == 2 and all(key in s for s in sets):
            a = statistics.median(sets[0][key])
            b = statistics.median(sets[1][key])
            if a and abs(b - a) / abs(a) > bound:
                flags.append(f"medians differ {(b - a) / a:+.1%} > {bound:.0%}")
        flagged += bool(flags)
        print(f"{workload:14s} {name:34s}" + "".join(cells)
              + ("  FLAG " + "; ".join(flags) if flags else ""))
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
