"""Threading: BLAS pinning for the training loops, and the kernel workers.

The workload is many small matrix products (latent dims of 2, feature counts
of ~100, particle blocks of ~50 rows); threaded BLAS loses badly to its own
dispatch overhead there and can reorder reductions. Training paths therefore
pin BLAS to one thread, which also keeps repeated runs bitwise identical
regardless of the host's core count.

Kernel loops bound by exp and trig, and the particle groups of the MLP pass,
release the GIL, so ``_split`` runs their index ranges on a pool made on first
use, with one worker per CPU of the affinity mask, at most 2 (``taskset``
restricts them; no option). A split keeps every output entry's one-worker
operations, so results are bitwise identical at any worker count; the gain
assumes one BLAS thread a worker, which the pinning gives.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext

try:
    from threadpoolctl import threadpool_info, threadpool_limits
except ImportError:  # pragma: no cover - optional dependency
    threadpool_info = threadpool_limits = None

_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_MIN_ENTRIES = 1 << 22  # kernel pairs, trig or MLP activation entries that pay for a hand-off
_pools: dict[int, ThreadPoolExecutor] = {}  # by process: a fork has no parent threads


def single_threaded_blas():
    """Context manager limiting BLAS pools to one thread (no-op if unavailable)."""
    if threadpool_limits is None:
        return nullcontext()
    return threadpool_limits(limits=1, user_api="blas")


def pinned_blas_threads() -> int | None:
    """BLAS threads inside ``single_threaded_blas``; None without threadpoolctl."""
    if threadpool_info is None:
        return None
    with single_threaded_blas():
        counts = [p["num_threads"] for p in threadpool_info() if p["user_api"] == "blas"]
    return max(counts, default=None)


def _split(n: int, unit_entries: int, fn) -> None:
    """Run ``fn(start, stop)`` over contiguous ranges that cover range(n).

    An index is ``unit_entries`` of work. One range runs off the main thread
    (callers' own threads stay serial), at one worker, or when a worker would
    get under ``_MIN_ENTRIES``; else the caller runs the first range and the
    pool the rest. ``fn`` writes only its own ranges of the outputs, and calls
    only numpy, private helpers and ``net.forward_group``, none of which keeps
    shared state. All ranges finish before the first exception, in range
    order, is re-raised.
    """
    k = min(_WORKERS, n, n * unit_entries // _MIN_ENTRIES if _MIN_ENTRIES else n)
    if k < 2 or threading.current_thread() is not threading.main_thread():
        fn(0, n)
        return
    pool = _pools.get(os.getpid())
    if pool is None:
        pool = _pools[os.getpid()] = ThreadPoolExecutor(_WORKERS, thread_name_prefix="dpkl-kernel")
    cuts = [n * i // k for i in range(k + 1)]
    futures = [pool.submit(fn, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        fn(0, cuts[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
