"""Compare runs of two commits: which metric moved, and which layer.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
                                      --change C1.json C2.json ...

Each file is a ``run.py --out`` result.  Take the files alternately (the
parent run, then the change run, then the change first, ...), at least
ten per side, one seed per pair; the runs of each side are read in the
order the files are given and the i-th parent run is paired with the
i-th change run, so that a pair is two runs taken side by side.  For
every (workload, end-to-end metric) pair this prints each side's median
and quartiles, the share of run pairs the change wins (ties count for
neither), and a verdict:

* ``better``       -- the change wins at least 9 of 10 pairs and its median
  differs from the parent's by more than the parent's interquartile range;
* ``worse``        -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``   -- the parent's own spread is wider than the bound, so no
  "no regression" claim can be made (unless every change run beats every
  parent run);
* ``within-bound`` -- otherwise.

When both sides carry traced runs it then ranks the per-layer self-time
deltas (``layer.<name>.self_ms``), largest first, so the output names the
layer that moved.  Exit status 1 when any pair is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], higher_is_better: bool,
            bound: float) -> Tuple[str, float]:
    """The verdict for one metric over paired runs (``parent[i]`` was
    taken beside ``change[i]``), and the change's pair win share."""
    sign = 1 if higher_is_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (cmed - pmed)
    if win_share >= WIN_SHARE and gain > p3 - p1:
        return "better", win_share
    scale = abs(pmed) or 1.0
    if -gain / scale > bound:
        return "worse", win_share
    all_better = (min(change) > max(parent)) if higher_is_better else (max(change) < min(parent))
    if (p3 - p1) / scale > bound and not all_better:
        return "unresolved", win_share
    return "within-bound", win_share


def load_runs(paths: List[str]) -> Dict[str, List[Dict]]:
    """Every run per workload, in the order of ``paths``."""
    runs: Dict[str, List[Dict]] = {}
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        for workload, entry in doc["workloads"].items():
            runs.setdefault(workload, []).extend(entry["runs"])
    return runs


def metric_values(runs: List[Dict], key: str) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for run in runs:
        for name, value in run.get(key, {}).items():
            values.setdefault(name, []).append(value)
    return values


def _cell(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def compare(parent: Dict[str, List[Dict]], change: Dict[str, List[Dict]], config: Dict) -> int:
    specs = {m["name"]: m for m in config["end_to_end"]}
    bad = 0
    for workload, parent_runs in parent.items():
        if workload not in change:
            continue
        pairs = list(zip(parent_runs, change[workload]))
        before = metric_values([p for p, _ in pairs], "metrics")
        after = metric_values([c for _, c in pairs], "metrics")
        unmatched = sum(p["seed"] != c["seed"] for p, c in pairs)
        print(f"== {workload}  ({len(pairs)} pairs"
              + (f", {unmatched} with different seeds" if unmatched else "") + ")")
        print(f"  {'metric':<22}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
              f"{'wins':>7}  verdict")
        for name, spec in specs.items():
            if name not in before or name not in after:
                continue
            result, wins = verdict(before[name], after[name], spec["better"] == "higher",
                                   spec["bound"])
            bad += result in ("worse", "unresolved")
            print(f"  {name:<22}{_cell(before[name]):>36}{_cell(after[name]):>36}"
                  f"{wins:>7.0%}  {result} (bound {spec['bound']})")
        layers_before = metric_values([p for p, _ in pairs], "layers")
        layers_after = metric_values([c for _, c in pairs], "layers")
        deltas = []
        for name in layers_before:
            if name.startswith("layer.") and name.endswith(".self_ms") and name in layers_after:
                old = statistics.median(layers_before[name])
                new = statistics.median(layers_after[name])
                deltas.append((new - old, name, old, new))
        if deltas:
            print("  per-layer self time per unit, largest move first:")
            for delta, name, old, new in sorted(deltas, key=lambda d: -abs(d[0])):
                print(f"    {name:<30}{old:>12.4f} -> {new:>12.4f} ms  ({delta:+.4f})")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_runs(args.parent), load_runs(args.change), config)


if __name__ == "__main__":
    sys.exit(main())
