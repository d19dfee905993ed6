"""Artifact I/O. Every file the package writes goes through `replacing`, so an
artifact is its previous version or complete, never truncated; every file it
reads as text is opened through `reading`. Text is UTF-8 with "\\n" line
ends."""

import csv
import json
import os
import secrets
from contextlib import contextmanager

from .exceptions import DataError


@contextmanager
def replacing(path, binary: bool = False):
    """Yield a new file, open for writing, that replaces `path` when the block
    ends normally. On an exception the file is deleted and the exception
    re-raised; `path` is left as it was. Nothing is fsynced. The file is
    created as `open(path, "w")` would create it, so the umask sets its mode
    bits."""
    head, name = os.path.split(os.fspath(path))
    # unique per process and per call, so concurrent writers never share one
    tmp = os.path.join(head,
                       f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = (open(tmp, "xb") if binary
          else open(tmp, "x", encoding="utf-8", newline=""))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, text: str) -> None:
    """Write one JSON document, serialized by the caller, and a newline."""
    with replacing(path) as fh:
        fh.write(text)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header row, then rows of cells the caller has formatted."""
    with replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@contextmanager
def reading(path):
    """Yield `path` open for reading as UTF-8 text, with newlines left as
    they are (what `csv` needs). A file that cannot be opened or read raises
    DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e


def read_json(path):
    """Parse a JSON file; an unreadable or non-JSON file raises DataError."""
    try:
        with reading(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e
