"""The speed scaling of run.py. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import signal
import time

import run


def test_timed_leaves_out_its_own_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    speed = run.Speedometer(sample_inside=True)

    def work():
        t_end = time.perf_counter() + 2.5
        while time.perf_counter() < t_end:
            pass
        return "done"

    result, elapsed, ref = speed.timed(work)
    assert result == "done"
    assert len(speed.samples) >= 4  # before, >= 2 inside, after
    # the busy loop ends 2.5 s after it starts, samples inside included
    inside = sum(speed.samples[1:-1])
    assert abs(elapsed + inside - 2.5) < 0.05
    mean = sum(speed.samples) / len(speed.samples)
    assert abs(ref - elapsed * run.CAL_REFERENCE_S / mean) < 1e-12
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_runs_take_no_sample_inside_the_work():
    speed = run.Speedometer(sample_inside=False)
    speed.timed(lambda: time.sleep(1.5))
    assert len(speed.samples) == 2
