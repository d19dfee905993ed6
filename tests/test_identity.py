"""The identity runs write, byte for byte, the files whose sha256
tests/golden/identity.sha256 records.

BLAS kernels differ by library, version and CPU, so the digests hold only in
the environment they were recorded in, which the golden file names: the
test skips in another one. A digest mismatch is a failure. It names each
differing file, with the largest difference `diff_runs.py` finds between it
and the file the code that recorded the digests writes (git gives that code,
when it can)."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.filterwarnings("ignore")  # the runs' own warnings


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


identity_runs = _script("identity_runs")
diff_runs = _script("diff_runs")
GOLDEN = identity_runs.GOLDEN


def _recorded_runs(dest: Path):
    """The identity runs of the commit that last changed the golden file, in
    `dest`; None when git cannot give that code or the golden file has
    changes it has not committed."""
    rel = GOLDEN.relative_to(ROOT).as_posix()

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, timeout=60).stdout

    try:
        if git("status", "--porcelain", "--", rel).strip():
            return None
        commit = git("log", "-1", "--format=%H", "--", rel).decode().strip()
        if not commit:
            return None
        code = dest / "code"
        code.mkdir(parents=True)
        subprocess.run(["tar", "-x", "-C", str(code)], check=True,
                       input=git("archive", commit, "src", "scripts"),
                       capture_output=True, timeout=60)
        subprocess.run([sys.executable, str(code / "scripts" /
                                            "identity_runs.py"),
                        "--out", str(dest / "runs")], check=True,
                       env=dict(os.environ, PYTHONPATH=str(code / "src")),
                       capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError):
        return None
    return dest / "runs"


def _mismatch(rel: str, run: Path, recorded, want: dict) -> str:
    """One line on a file whose digest differs from the recorded one."""
    if rel not in want:
        return f"{rel}: written, but not recorded"
    if not (run / rel).is_file():
        return f"{rel}: recorded, but not written"
    ref = recorded / rel if recorded else None
    if ref is None or not ref.is_file() or \
            hashlib.sha256(ref.read_bytes()).hexdigest() != want[rel]:
        return f"{rel}: digest differs (no recorded copy to diff against)"
    rep = diff_runs.compare_file(ref, run / rel, None)
    return f"{rel}: {rep.largest or '; '.join(rep.lines)}"


def test_identity_runs_write_the_recorded_bytes(tmp_path):
    env, want = identity_runs.read_golden(GOLDEN)
    here = identity_runs.environment()
    if here != env:
        pytest.skip(f"digests recorded in {env}; this environment is {here}")
    run = tmp_path / "run"
    identity_runs.write_runs(run)
    got = identity_runs.digests(run)
    differing = sorted(r for r in set(want) | set(got)
                       if want.get(r) != got.get(r))
    if differing:
        recorded = _recorded_runs(tmp_path / "recorded")
        pytest.fail(f"{len(differing)} of {len(want)} identity-run files "
                    f"differ from {GOLDEN.name}:\n" + "\n".join(
                        _mismatch(r, run, recorded, want) for r in differing))
