"""Hold numpy's OpenBLAS to one thread while a block of code runs.

Code that spreads independent work over its own threads wants every BLAS
call to run in the thread that makes it: OpenBLAS's own threads would
compete with them for the same cores, and some GEMM shapes round
differently at one thread and at two.  The OpenBLAS that numpy loaded is
found by its path in /proc/self/maps, so only on Linux; where none is
found, `one_thread()` changes nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache

# (set, get) symbol pairs: scipy-openblas wheels, 64-bit builds, plain
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "openblas_{}_num_threads")

# OpenBLAS's thread count is one per process, so its holders are too
_lock = threading.Lock()
_holders = 0
_saved = 1


@cache
def _openblas():
    """(set, get) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _SYMBOLS:
            try:
                set_threads = getattr(lib, sym.format("set"))
                get_threads = getattr(lib, sym.format("get"))
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextmanager
def one_thread():
    """Run the block with OpenBLAS at one thread; yield whether it is.

    Holders may nest and overlap across threads: the first to enter
    saves OpenBLAS's thread count and sets 1, and the last to leave
    restores it, whether its block returned or raised.  Yields False,
    and changes nothing, where no OpenBLAS is loaded.
    """
    global _holders, _saved
    api = _openblas()
    if api is None:
        yield False
        return
    set_threads, get_threads = api
    with _lock:
        if not _holders:
            _saved = get_threads()
            set_threads(1)
        _holders += 1
    try:
        yield True
    finally:
        with _lock:
            _holders -= 1
            if not _holders:
                set_threads(_saved)
