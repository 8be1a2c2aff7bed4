"""Benchmark of dpkl through its public entry points, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload fit-rff --seed 1 --seconds 10 --trace 0

The workload's inputs come from ``--seed``. Set-up (imports, data generation,
normalization and, for predict-serve, training and saving the served
checkpoint) is timed before the first op. Ops then repeat until they have
taken ``--seconds`` between them. Each op's output is checked, and a failed op is left out of
every timing. The gated timings are given at a reference host speed (see
speed.py). With ``--trace 1``, ops alternate between untraced and traced, and
the traced ones give the per-layer spans.

The next-to-last stdout line is a JSON detail record: every metric under the
names in perfbench/README.md, the result digest, the environment and, when
traced, the tracing overhead. The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pin BLAS to one thread before numpy loads, so timings and results do not
# depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI asks git for a build id; keep git from searching above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import argparse
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Modules that load numpy or dpkl are imported inside functions, after main()
# starts the clock that set-up time includes.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
# Stop starting new ops after this long, so a slow machine still exits well
# inside the 180 s a run may take.
HARD_STOP_S = 110.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT),
    }


def _finite_or_none(obj):
    """JSON has no NaN: report a metric that could not be measured as null."""
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_op(workload, state, tracer, calibrator):
    """One op, timed from outside; traced when ``tracer`` is given."""
    from metrics import OpResult, unattributed
    from speed import StepClock

    clock = StepClock(calibrator)

    def call(fn, *args, **kwargs):
        if tracer is not None:
            tracer.install()
            # the caller resolved fn before install; trace it as a root span
            fn = tracer.wrappers.get(fn, fn)
        clock.mark()
        try:
            return fn(*args, **kwargs)
        finally:
            clock.mark()
            if tracer is not None:
                tracer.uninstall()

    try:
        res = workload.op(state, call, clock.mark)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        res = OpResult(error=f"{type(exc).__name__}: {exc}")
    res.intervals = clock.intervals()
    res.tracer = tracer
    if res.traced and res.ok:
        res.unattributed_s = unattributed(res.seconds, tracer)
    return res


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import dpkl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start
    import dpkl

    if Path(dpkl.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: imported dpkl from {dpkl.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import metrics
    import spans
    from speed import Calibrator

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        # ops repeat until they have taken --seconds of wall time between
        # them; checks and calibration do not count, and the loop's own wall
        # time is capped in case ops fail fast
        calibrator = Calibrator()
        ops = []
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(run_op(wl, state, spans.Tracer() if traced else None, calibrator))
            now = time.perf_counter()
            if now - t_start > HARD_STOP_S:
                break
            done = sum(o.seconds for o in ops) >= args.seconds or now - loop_start > 3 * args.seconds
            if done and (not args.trace or len(ops) >= 2):
                break

        traced_digests = {o.digest for o in ops if o.ok and o.traced}
        traced_matches = len(traced_digests) == 1 and traced_digests == {
            o.digest for o in ops if o.ok and not o.traced}
        digest = metrics.check_digests(ops)
        # every successful op trained (or served) the same model, so its
        # held-out quality is evaluated once
        first = next((o for o in ops if o.ok), None)
        quality, eval_error, eval_digest = {}, None, ""
        if first is not None:
            quality, eval_error, eval_digest = wl.evaluate(state, first)
        if eval_error is not None:
            for o in ops:
                if o.ok:
                    o.ok, o.error = False, eval_error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not o.ok for o in ops)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": f"{digest}:{eval_digest}" if eval_digest else digest,
        "environment": environment(),
        "metrics": metrics.detail(wl.kind, setup_s, ops, peak_rss_mb, quality),
        "errors": [o.error for o in ops if not o.ok],
    }
    if args.trace:
        result_metrics = metrics.per_layer(ops)
        first = next((o for o in ops if o.ok and o.traced), None)
        detail["tracing"] = {
            "overhead_frac": result_metrics["trace.overhead_frac"]["value"],
            "absent_spans": first.tracer.absent if first else list(spans.SPANS),
            "uncounted_spans": sorted({n for o in ops if o.traced for n in o.tracer.hook_errors}),
            "traced_digest_matches_untraced": traced_matches,
            # the non-root self times plus the unattributed rest make up the op
            "first_traced_op": None if first is None else {
                "op_s": first.seconds,
                "sum_self_s": first.tracer.self_seconds(),
                "unattributed_s": first.unattributed_s,
            },
        }
    else:
        result_metrics = metrics.end_to_end(wl.kind, setup_s, ops, peak_rss_mb, quality)
    correct = failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in result_metrics.values()
    )
    print(json.dumps(_finite_or_none(detail)))
    print(json.dumps(_finite_or_none({
        "correct": correct, "attempted": len(ops), "failed": failed, "metrics": result_metrics,
    })))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
