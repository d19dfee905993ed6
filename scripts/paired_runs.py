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
pairs, then how many pairs the change won on each metric: pairs where it
moved the way the parent's `BENCHMARK.json` calls `better`. A tie wins
nothing; a metric that file does not name shows no count.
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


def directions(checkout: Path) -> dict:
    """+1 for each metric `BENCHMARK.json` in `checkout` calls higher-better,
    -1 for lower-better, by name; empty without the file."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: 1 if m["better"] == "higher" else -1
            for section in ("end_to_end", "per_layer")
            for m in bench.get(section, [])}


def relative(parent: float, change: float) -> float:
    return (change - parent) / parent if parent else float("nan")


def spread(values: list) -> str:
    """`median (IQR q1 to q3)` of one side's values of a metric."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return f"{statistics.median(values):.6g} (IQR {q1:.6g} to {q3:.6g})"


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
    better = directions(args.parent)
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
    print(f"pairs the change won, of {len(args.seeds)}")
    for name in sorted(changes):
        print(f"  {name}: {wins[name] if name in better else '-'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
