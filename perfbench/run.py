"""Benchmark of the two-stage CTR trainer in `src/ctrl`.

    python3 perfbench/run.py --workload {align-train,gap-score,finetune}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. One process runs one workload: set-up three
times (the median is `setup_s`), then units of work for S seconds (a unit
starts only when it should end in time, and the first always runs), then
the output checks. Every set-up and every unit is bracketed by a fixed
calibration kernel, and its time is scaled to the kernel's reference
speed (see `CAL_REFERENCE_S`). The last line of stdout is one JSON object:
`correct`, `attempted` (units run), `failed` (units that raised, diverged
or failed a check) and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the library is traced and the metrics
are per layer. The line before it records the environment, the raw and
scaled times, the calibrations and the checked output values.

`--seed` picks the data and the model initialization. Seeds listed in
`references.json` are also checked against their recorded outputs; see
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# A shared machine's CPU speed swings by 15-40% within seconds and in
# phases of 10-60 s, as long as a run, so raw times move every run's
# figures together. A fixed numpy kernel of ~25 ms reads the speed of the
# moment: it runs right before and after each timed piece of work and, in
# untraced runs, once every CAL_INTERVAL_S during it. The work's time, less
# the samples taken inside it, is multiplied by CAL_REFERENCE_S over the
# samples' mean: the figures read as if measured at the speed at which the
# kernel takes CAL_REFERENCE_S. The kernel runs nothing of the library, so
# a change to the library moves the figures in full.
CAL_REFERENCE_S = 0.025
CAL_INTERVAL_S = 1.0
# BLAS runs single-threaded unless the caller says otherwise: these workloads
# multiply small matrices, and a second BLAS thread measured no faster while
# doubling CPU use and the exposure to other load on a shared machine.
BLAS_DEFAULTS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CTRL_ALIGN_THREADS")


def git_commit() -> str:
    """HEAD's commit read from .git without starting git; 'unknown' when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


class Speedometer:
    """Times work and scales it to the reference speed (see CAL_REFERENCE_S)."""

    def __init__(self, sample_inside: bool):
        import numpy as np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 80))
        self._w = rng.standard_normal((80, 64))
        self.sample_inside = sample_inside
        self.samples = []  # every kernel time of the run, for the record

    def kernel(self) -> float:
        """Seconds the kernel takes now: small matmuls and element-wise
        ops, the mix of the workloads' numpy calls."""
        import numpy as np
        t0 = time.perf_counter()
        for _ in range(300):
            h = np.maximum(self._a @ self._w, 0.0)
            h.sum(axis=0)
            (h * 0.5 + 1.0).mean()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def timed(self, work):
        """Run work(); return its result, its seconds, and its seconds at
        the reference speed."""
        inside = []
        before = self.kernel()
        if self.sample_inside:
            old = signal.signal(signal.SIGALRM,
                                lambda *_: inside.append(self.kernel()))
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            t0 = time.perf_counter()
            result = work()
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            elapsed = time.perf_counter() - t0 - sum(inside)
        speed = statistics.mean([before, *inside, self.kernel()])
        return result, elapsed, elapsed * CAL_REFERENCE_S / speed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ctrl" / "__init__.py").is_file():
        print(f"perfbench: no src/ctrl under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    for var, value in BLAS_DEFAULTS.items():
        os.environ.setdefault(var, value)  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, work, workloads, Tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, workloads, Tracer) -> int:
    tracer = Tracer() if args.trace else None
    # Samples inside a unit would land in the traced spans.
    speed = Speedometer(sample_inside=tracer is None)
    setup_times, setup_ref = [], []  # raw, and at the reference speed
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before making the next
        state, elapsed, ref = speed.timed(
            lambda: workloads.setup(args.workload, args.seed, work))
        setup_times.append(elapsed)
        setup_ref.append(ref)

    rates, rates_ref, rows, failed = [], [], 0, 0
    t_measure = time.perf_counter()
    last = 0.0  # duration of the last unit, its samples included
    # Start a unit only when it should end within --seconds (always one).
    while not rates or time.perf_counter() - t_measure + last <= args.seconds:
        try:
            t_start = time.perf_counter()
            if tracer is None:
                n, elapsed, ref = speed.timed(lambda: workloads.run_unit(state))
            else:
                tracer.new_unit()
                with tracer.installed():
                    n, elapsed, ref = speed.timed(
                        lambda: workloads.run_unit(state))
            last = time.perf_counter() - t_start
            rates.append(n / elapsed)
            rates_ref.append(n / ref)
            rows += n
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            traceback.print_exc()
            failed += 1
            break
    units = len(rates)
    peak_mb = peak_rss_mb()  # before the checks, whose oracle allocates too

    reference = workloads.load_reference(args.workload, args.seed)
    try:
        problems = workloads.check(state, reference)
    except Exception as e:  # noqa: BLE001 - a broken check is a failed check
        traceback.print_exc()
        problems = [f"check raised {type(e).__name__}: {e}"]
    attempted = units + failed
    if problems:
        failed = attempted  # every unit repeats the first unit's outputs
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    rate = statistics.median(rates_ref) if rates_ref else 0.0
    if tracer is None:
        metrics = {
            "rows_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        }
    else:
        metrics = tracer.metrics(max(units, 1))
        metrics["traced.rows_per_s"] = {"value": rate, "unit": "1/s"}
        metrics["traced.peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}

    record = {"workload": args.workload, "seed": args.seed,
              "units": units, "rows": rows, "rates": rates,
              "rates_at_reference": rates_ref, "setup_s": setup_times,
              "setup_s_at_reference": setup_ref, "speed_samples": speed.samples,
              "outputs": workloads.summary(state) if state.outputs else None,
              "reference": "recorded" if reference else "none (invariants only)",
              "problems": problems, "env": environment()}
    print("perfbench: " + json.dumps(record, sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
