"""Run the benchmark in two checkouts in pairs and report the relative change.

    python scripts/paired_runs.py PARENT CHANGE --workload gap-score \
        --seeds 0-3,0-3 --seconds 30

PARENT and CHANGE are two checkouts of the repository, each with its own
`perfbench/run.py` and `src/`. For each seed of a list such as `0-3` or
`0,2,5` (a seed listed twice is paired twice), one pair of runs is made:
`perfbench/run.py --workload W --seed N --seconds S` in each checkout, one
after the other. The
side that goes first alternates from pair to pair, so a drift in the
machine's speed favours neither. A run whose last line reports `correct`
false or `failed` > 0 stops the script with status 1: its figures measure
broken work. Each pair's metrics are printed as parent, change and relative
change, (change - parent) / parent, then each metric's median relative
change over the pairs, then each side's median and interquartile range
(Q1 to Q3, the inclusive quartiles of `statistics.quantiles`) over the
pairs. Then each end-to-end metric that the parent's `BENCHMARK.json` gives
a `bound` gets one verdict, with the bound as a fraction of the parent's
median:

- "worse past its bound" when the change's median is worse than the
  parent's by more than the bound;
- "unresolved" when the parent's interquartile range is wider than the
  bound and not every change run reads better than every parent run;
- "within its bound" otherwise.

Last comes how many pairs the change won on each metric: pairs where it
moved the way that file calls `better`. A tie wins nothing; a metric that
file does not name shows no count.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """`0-3` -> [0, 1, 2, 3]; `0,2,5` -> [0, 2, 5]; `0-1,0` -> [0, 1, 0]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        try:
            seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed list '{text}'")
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list '{text}'")
    return seeds


class RunRefused(Exception):
    pass


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one benchmark run in `checkout`, by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunRefused(f"{checkout}: seed {seed}: no result line "
                         f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        raise RunRefused(f"{checkout}: seed {seed}: correct="
                         f"{result.get('correct')} failed="
                         f"{result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def declared(checkout: Path) -> tuple:
    """What `BENCHMARK.json` in `checkout` declares, as two dicts by metric
    name: +1 for each metric it calls higher-better and -1 for lower-better,
    and the `bound` of each end-to-end metric that has one. Both are empty
    without the file."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}, {}
    bench = json.loads(path.read_text(encoding="utf-8"))
    better = {m["name"]: 1 if m["better"] == "higher" else -1
              for section in ("end_to_end", "per_layer")
              for m in bench.get(section, [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])
              if "bound" in m}
    return better, bounds


def relative(parent: float, change: float) -> float:
    return (change - parent) / parent if parent else float("nan")


def quartiles(values: list) -> tuple:
    """(Q1, Q3), the inclusive quartiles of one side's values of a metric."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def spread(values: list) -> str:
    """`median (IQR q1 to q3)` of one side's values of a metric."""
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} (IQR {q1:.6g} to {q3:.6g})"


def verdict(parent: list, change: list, better: int, bound: float) -> str:
    """The no-regression verdict on one metric whose runs may move by at most
    `bound`, a fraction of the parent's median; `better` is +1 when higher
    is better and -1 when lower is. The change is worse past its bound when
    its median is; the comparison is unresolved when the parent's own
    interquartile range is wider than the bound and not every change run
    reads better than every parent run."""
    median = statistics.median(parent)
    if better * (statistics.median(change) - median) < -bound * abs(median):
        return "worse past its bound"
    q1, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(median) and \
            min(better * v for v in change) <= max(better * v for v in parent):
        return "unresolved"
    return "within its bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's checkout")
    ap.add_argument("change", type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=[0],
                    help="seed list, e.g. 0-3 or 0,2,5 (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    for d in (args.parent, args.change):
        if not (d / "perfbench" / "run.py").is_file():
            ap.error(f"{d} has no perfbench/run.py")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    better, bounds = declared(args.parent)
    changes, wins, seen = {}, {}, {side: {} for side in SIDES}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        try:
            got = {side: run_once(checkouts[side], args.workload, seed,
                                  args.seconds) for side in order}
        except RunRefused as e:
            print(f"refused: {e}", file=sys.stderr)
            return 1
        print(f"pair {i + 1} seed {seed} ({order[0]} first)")
        for name in sorted(set(got["parent"]) & set(got["change"])):
            p, c = got["parent"][name], got["change"][name]
            changes.setdefault(name, []).append(relative(p, c))
            for side in SIDES:
                seen[side].setdefault(name, []).append(got[side][name])
            wins[name] = wins.get(name, 0) + ((c - p) * better.get(name, 0) > 0)
            print(f"  {name}: {p:.6g} -> {c:.6g} ({relative(p, c):+.2%})",
                  flush=True)
    print(f"median relative change over {len(args.seeds)} pairs")
    for name, values in sorted(changes.items()):
        print(f"  {name}: {statistics.median(values):+.2%} "
              f"(min {min(values):+.2%}, max {max(values):+.2%})")
    print(f"median and interquartile range of each side over "
          f"{len(args.seeds)} pairs")
    for name in sorted(changes):
        print(f"  {name}: parent {spread(seen['parent'][name])}; "
              f"change {spread(seen['change'][name])}")
    print("verdict on each end-to-end metric with a bound")
    for name in sorted(set(bounds) & set(changes)):
        said = verdict(seen["parent"][name], seen["change"][name],
                       better[name], bounds[name])
        print(f"  {name}: {said} ({bounds[name]:.0%})")
    print(f"pairs the change won, of {len(args.seeds)}")
    for name in sorted(changes):
        print(f"  {name}: {wins[name] if name in better else '-'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
