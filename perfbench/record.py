"""Record the checked outputs of every workload for a range of seeds.

    python3 perfbench/record.py --seeds 0-19

Runs one unit of every workload for each seed in the range, checks its
invariants, and writes the outputs to references.json, which `run.py`
compares against. Record only at a commit whose outputs are known good: a
later change that alters what the library computes must fail these
comparisons, not re-record them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import BLAS_DEFAULTS, ROOT


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True, help="a range lo-hi, e.g. 0-19")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    if not (lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        ap.error("--seeds must be a range lo-hi, e.g. 0-19")
    for var, value in BLAS_DEFAULTS.items():
        os.environ.setdefault(var, value)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        with open(workloads.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in range(int(lo), int(hi) + 1):
                state = workloads.setup(name, seed, work)
                workloads.run_unit(state)
                problems = workloads.check(state)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                refs.setdefault(name, {})[str(seed)] = workloads.summary(state)
                print(name, seed, refs[name][str(seed)], flush=True)
                with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
                    json.dump(refs, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
