"""Two-stage CTR training: cross-modal contrastive alignment of a tabular
tower with a text tower, then supervised fine-tuning of the tabular tower.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1  # glibc's <malloc.h> parameter numbers
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic threshold (64-bit)
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # where its dynamic rule would put trim


def _pin_malloc_thresholds() -> None:
    """Keep each batch loop's working set mapped from one batch to the next.

    An untaped forward frees its whole working set after every tile or
    batch. Under glibc's dynamic thresholds that memory is unmapped or
    trimmed and the next pass faults it in again, ~6,000 minor faults per
    128-row text-tower batch. Pinned where the dynamic rule tops out (setting them
    also stops the rule), it stays in the heap. Overrides MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_;
    does nothing where the C library has no `mallopt` (musl, macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_malloc_thresholds()
