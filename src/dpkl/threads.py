"""Threading: BLAS pinning for training and prediction, and the kernel workers.

The workload is many small matrix products (latent dims of 2, feature counts
of ~100, particle blocks of ~50 rows); threaded BLAS loses badly to its own
dispatch overhead there and can reorder reductions. Training and prediction
therefore pin BLAS to one thread, which also keeps repeated runs bitwise
identical regardless of the host's core count. The pin goes through the
thread-count calls of every OpenBLAS loaded in the process, found through
/proc/self/maps. Another BLAS (MKL, BLIS), or a host without that file, is left
as it is, with a RuntimeWarning.

Kernel loops bound by exp and trig, and the particle groups of the MLP pass,
release the GIL, so ``_split`` runs their index ranges, while the caller
waits, on a pool made on first use with one worker per CPU of the affinity
mask, at most 2 (``taskset`` restricts them; no option). A split keeps every
output entry's one-worker operations, or cuts the work into a fixed number of
chunks summed in chunk order (the exact tile loop), so results are
bitwise identical at any worker count; the gain assumes one BLAS thread a worker, which the pinning
gives. Each worker is pinned at its start to its own CPU of the mask: left to
the scheduler, a worker woken for a few milliseconds of work was often placed
on a busy CPU, and the 45-row epoch's split then gained little or nothing. No
other thread is moved.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_MIN_ENTRIES = 1 << 22  # kernel pairs, trig or MLP activation entries that pay for a hand-off
_pools: dict[int, ThreadPoolExecutor] = {}  # by process: a fork has no parent threads


# Thread-count calls of numpy's libscipy_openblas64_, scipy's libscipy_openblas
# and a system OpenBLAS, "{}" being get or set.
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads")


@functools.cache  # numpy and scipy load theirs on import, before any pin is taken
def _openblas() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded in the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_CALLS:
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


_pin_lock = threading.Lock()
_pin_depth = 0  # blocks inside single_threaded_blas, over all threads
_saved: list[tuple] = []  # (set, threads) of each OpenBLAS at the first entry


@contextmanager
def single_threaded_blas():
    """Every loaded OpenBLAS limited to one thread inside the block.

    The limit is process-wide, so blocks on several threads share one pin: the
    first entry takes it and the last exit restores the threads found then.
    """
    global _pin_depth, _saved
    with _pin_lock:
        if _pin_depth == 0:
            libs = _openblas()
            if not libs:
                # one place and one text: the default filter shows it once per process
                warnings.warn("no OpenBLAS found: BLAS threads stay as they are", RuntimeWarning)
            _saved = [(set_, get()) for get, set_ in libs]
            for set_, _ in _saved:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, n in _saved:
                    set_(n)


def _pin_worker(cpus: list[int], order) -> None:
    """Pool initializer: the i-th worker started runs on cpus[i mod len(cpus)], i from 0."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[next(order) % len(cpus)]})
        except OSError:  # the mask shrank since: placement is only a hint, a failed
            pass  # initializer would break the pool


def _pool() -> ThreadPoolExecutor:
    """This process's kernel pool; its workers start on first use."""
    pool = _pools.get(os.getpid())
    if pool is None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        pool = _pools[os.getpid()] = ThreadPoolExecutor(
            _WORKERS, thread_name_prefix="dpkl-kernel",
            initializer=_pin_worker, initargs=(cpus, itertools.count()),
        )
    return pool


def pinned_blas_threads() -> int | None:
    """BLAS threads inside ``single_threaded_blas``; None when no BLAS can be pinned."""
    with single_threaded_blas():
        return max((get() for get, _ in _openblas()), default=None)


def _split(n: int, unit_entries: int, fn) -> None:
    """Run ``fn(start, stop)`` over contiguous ranges that cover range(n).

    An index is ``unit_entries`` of work. One range runs on the caller off the
    main thread (callers' own threads stay serial), at one worker, or when a
    worker would get under ``_MIN_ENTRIES``; else the pool runs every range
    while the caller waits. ``fn`` writes only its own ranges of the outputs,
    allocates its own working memory and calls only numpy and private
    helpers, none of which keeps state shared between threads. All ranges
    finish before the first exception, in range order, is re-raised.
    """
    k = min(_WORKERS, n, n * unit_entries // _MIN_ENTRIES if _MIN_ENTRIES else n)
    if k < 2 or threading.current_thread() is not threading.main_thread():
        fn(0, n)
        return
    pool = _pool()
    cuts = [n * i // k for i in range(k + 1)]
    futures = [pool.submit(fn, a, b) for a, b in zip(cuts, cuts[1:])]
    wait(futures)
    for f in futures:
        f.result()
