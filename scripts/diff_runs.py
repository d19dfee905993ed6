"""Compare the artifacts of two work directories, file by file.

Every file under either directory is matched by its relative path. Each
pair is reported as identical or as differing; for a differing pair:

- a CSV file: the largest absolute and relative difference in each column;
- a checkpoint (.ckpt, read with load_checkpoint): the config and extra keys
  that differ and the largest absolute difference in each tensor;
- a JSON file: the keys whose values differ.

The relative difference of a and b is |a - b| / max(|a|, |b|). The exit
status is 0 when every file is byte-identical, or, with --rtol R, when every
difference is numeric and at most R relative; otherwise it is 1.

A checkpoint's `extra.init` is the sha256 of the checkpoint it was
warm-started from, so any drift in align.ckpt changes it in model.ckpt.
Two differing values are accepted when each is the sha256 of the align.ckpt
beside its own checkpoint and those two align.ckpt files match within
--rtol; without --rtol, files whose bytes differ never match.

    python scripts/diff_runs.py parent/work change/work
    python scripts/diff_runs.py parent/work change/work --rtol 1e-12
"""

import argparse
import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from ctrl.checkpoint import load_checkpoint
from ctrl.exceptions import CheckpointError


class Report:
    """Differences found in one file; `ok` says whether they are within
    the tolerance."""

    def __init__(self, rtol):
        self.rtol = rtol
        self.lines = []
        self.ok = True

    def text(self, what):
        self.lines.append(what)
        self.ok = False

    def number(self, what, a, b):
        """Record the largest absolute and relative difference of two
        equally shaped sets of numbers."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        d = np.abs(a - b)
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0).max()
        self.lines.append(f"{what}: max abs {d.max():.3g}, max rel {rel:.3g}")
        if self.rtol is None or not rel <= self.rtol:
            self.ok = False


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: Path, b: Path, rep: Report):
    with open(a, newline="", encoding="utf-8") as fa, \
            open(b, newline="", encoding="utf-8") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if not ra or not rb or ra[0] != rb[0]:
        rep.text("header differs")
        return
    if len(ra) != len(rb):
        rep.text(f"{len(ra) - 1} rows vs {len(rb) - 1}")
        return
    header = ra[0]
    for j, col in enumerate(header):
        xs, ys, text = [], [], 0
        for row_a, row_b in zip(ra[1:], rb[1:]):
            ca = row_a[j] if j < len(row_a) else None
            cb = row_b[j] if j < len(row_b) else None
            if ca == cb:
                continue
            fa, fb = (_as_float(ca), _as_float(cb)) if ca and cb else (None, None)
            if fa is None or fb is None:
                text += 1
            else:
                xs.append(fa)
                ys.append(fb)
        if text:
            rep.text(f"column {col}: {text} non-numeric cells differ")
        if xs:
            rep.number(f"column {col} ({len(xs)} cells)", xs, ys)


def _leaves(obj, key=""):
    """Flatten nested dicts and lists to {path: leaf}, paths like a.b[0]."""
    if isinstance(obj, dict) and obj:
        items = [(f"{key}.{k}" if key else str(k), v) for k, v in obj.items()]
    elif isinstance(obj, list) and obj:
        items = [(f"{key}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return {key: obj}
    out = {}
    for k, v in items:
        out.update(_leaves(v, k))
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_values(a, b, rep: Report, key=""):
    """Report every key of two JSON-like values whose leaves differ."""
    la, lb = _leaves(a, key), _leaves(b, key)
    for name in sorted(set(la) | set(lb)):
        if name not in la or name not in lb:
            rep.text(f"key {name} only in {'A' if name in la else 'B'}")
            continue
        va, vb = la[name], lb[name]
        if va == vb and type(va) is type(vb):
            continue
        if _is_number(va) and _is_number(vb):
            rep.number(f"key {name} ({va!r} vs {vb!r})", va, vb)
        else:
            rep.text(f"key {name}: {va!r} vs {vb!r}")


def compare_json(a: Path, b: Path, rep: Report):
    try:
        ja = json.loads(a.read_text(encoding="utf-8"))
        jb = json.loads(b.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        rep.text(f"not comparable as JSON ({e})")
        return
    compare_values(ja, jb, rep)


def _init_from_align(a: Path, b: Path, init_a, init_b, rtol) -> bool:
    """Whether each init digest is the sha256 of the align.ckpt beside its
    checkpoint, and those two files match within rtol."""
    sa, sb = a.with_name("align.ckpt"), b.with_name("align.ckpt")
    if not (sa.is_file() and sb.is_file()):
        return False
    if (hashlib.sha256(sa.read_bytes()).hexdigest() != init_a
            or hashlib.sha256(sb.read_bytes()).hexdigest() != init_b):
        return False
    return compare_file(sa, sb, rtol).ok


def compare_ckpt(a: Path, b: Path, rep: Report):
    try:
        ca, cb = load_checkpoint(a), load_checkpoint(b)
    except CheckpointError as e:
        rep.text(f"not comparable as checkpoints ({e})")
        return
    if ca.schema_hash != cb.schema_hash:
        rep.text("schema hash differs")
    compare_values(ca.config, cb.config, rep, "config")
    ea, eb = dict(ca.extra), dict(cb.extra)
    if (ea.get("init") != eb.get("init")
            and _init_from_align(a, b, ea.get("init"), eb.get("init"),
                                 rep.rtol)):
        del ea["init"], eb["init"]
        rep.lines.append("key extra.init: derived from align.ckpt, "
                         "the sha256 of each side's copy")
    compare_values(ea, eb, rep, "extra")
    for section in ("params", "buffers"):
        ta, tb = getattr(ca, section), getattr(cb, section)
        for name in sorted(set(ta) | set(tb)):
            if name not in ta or name not in tb:
                rep.text(f"tensor {name} only in {'A' if name in ta else 'B'}")
            elif ta[name].shape != tb[name].shape:
                rep.text(f"tensor {name}: shape {ta[name].shape} vs "
                         f"{tb[name].shape}")
            elif ta[name].tobytes() != tb[name].tobytes():
                rep.number(f"tensor {name}", ta[name], tb[name])


COMPARERS = {".csv": compare_csv, ".json": compare_json, ".ckpt": compare_ckpt}


def compare_file(a: Path, b: Path, rtol) -> Report:
    """The differences of two files whose bytes differ."""
    rep = Report(rtol)
    compare = COMPARERS.get(a.suffix)
    if compare is not None:
        compare(a, b, rep)
    if not rep.lines:  # nothing the parsed contents can show
        rep.text("bytes differ")
    return rep


def files_under(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def diff_dirs(dir_a: Path, dir_b: Path, rtol=None) -> bool:
    """Print one verdict per file; True when the directories match."""
    fa, fb = files_under(dir_a), files_under(dir_b)
    all_ok = True
    for rel in sorted(fa | fb):
        if rel not in fa or rel not in fb:
            print(f"{'MISSING':<10}{rel}: only in {'A' if rel in fa else 'B'}")
            all_ok = False
            continue
        pa, pb = dir_a / rel, dir_b / rel
        if pa.read_bytes() == pb.read_bytes():
            print(f"{'identical':<10}{rel}")
            continue
        rep = compare_file(pa, pb, rtol)
        print(f"{'within' if rep.ok else 'DIFFERS':<10}{rel}")
        for line in rep.lines:
            print(f"    {line}")
        all_ok = all_ok and rep.ok
    return all_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="first work directory")
    ap.add_argument("b", type=Path, help="second work directory")
    ap.add_argument("--rtol", type=float, default=None,
                    help="accept numeric differences up to this relative size")
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    same = diff_dirs(args.a, args.b, args.rtol)
    print("match" if same else "mismatch")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
