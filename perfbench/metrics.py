"""Metric definitions and the pure functions that turn op results into them.

Nothing here imports dpkl or reads the clock, so it can be tested alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spans import COUNTS, SPANS, count_values
from speed import REF_S

# Gated end-to-end metrics: name -> (unit, better). Every workload reports
# every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_rmse": ("y_units", "lower"),
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.total_s"] = ("s", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
for _name, _unit in COUNTS.items():
    PER_LAYER[_name] = (_unit, "lower")
PER_LAYER["trace.unattributed_s"] = ("s", "lower")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower")

_QUALITY_UNITS = {"test_rmse": "y_units", "test_nll": "nats", "test_accuracy": "frac"}

# Candidate tail percentiles, highest first; a tail is reported only when at
# least MIN_BEYOND samples lie beyond it.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


@dataclass
class OpResult:
    """One timed operation: a training call or a ``dpkl predict`` call."""

    ok: bool = False
    error: str | None = None
    rows: int = 0  # query rows of a predict call
    # (wall seconds, calibration seconds) between the op's clock marks: for a
    # training call, [start .. epoch 0 hook], one per epoch, [last hook .. end]
    intervals: list = field(default_factory=list)
    checked: list = field(default_factory=list)  # per epoch: ran a validation check
    digest: str = ""
    model: object = None  # what the workload's evaluate() needs
    quality: dict = field(default_factory=dict)
    tracer: object = None  # the spans.Tracer of a traced op
    unattributed_s: float = math.nan

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def seconds(self) -> float:
        """Wall time of the op, calibration excluded."""
        return sum(s for s, _ in self.intervals)

    @property
    def ref_seconds(self) -> float:
        """The op's time at the reference host speed."""
        return sum(at_reference_speed(iv) for iv in self.intervals)


def at_reference_speed(interval) -> float:
    seconds, calib_s = interval
    return seconds * REF_S / calib_s


def epochs(op: OpResult, checked: bool) -> list:
    """Intervals of the epochs that did (or did not) run a validation check."""
    return [iv for iv, c in zip(op.intervals[1:-1], op.checked) if c == checked]


def steps(kind: str, op: OpResult) -> list:
    """A training op's steps are its epochs without a check; a predict op is one step."""
    return epochs(op, checked=False) if kind == "train" else op.intervals


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples beyond it."""
    for p in TAILS:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def timing(name: str, samples, unit: str = "s") -> dict:
    """``name.p50``, the highest supported ``name.pNN`` and ``name.n``."""
    samples = [float(s) for s in samples]
    out = {f"{name}.n": {"value": len(samples), "unit": "count"}}
    if not samples:
        return out
    out[f"{name}.p50"] = {"value": float(np.percentile(samples, 50)), "unit": unit}
    tail = tail_percentile(len(samples))
    if tail is not None:
        out[f"{name}.p{tail:g}"] = {"value": float(np.percentile(samples, tail)), "unit": unit}
    return out


def check_digests(ops: list[OpResult]) -> str:
    """Fail every op whose digest differs from the first successful op's.

    Every op of a run repeats the same work on the same inputs, so its
    digest must repeat. Returns that digest ("" when no op succeeded).
    """
    first = next((op.digest for op in ops if op.ok), "")
    for op in ops:
        if op.ok and op.digest != first:
            op.ok = False
            op.error = "digest differs from the first op's"
    return first


def _median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def _untraced_ok(ops):
    return [o for o in ops if o.ok and not o.traced]


def end_to_end(kind: str, setup_s: float, ops: list[OpResult], peak_rss_mb: float,
               quality: dict) -> dict:
    """The gated metrics; timings from successful untraced ops, at reference speed."""
    ok = _untraced_ok(ops)
    values = {
        "setup_s": setup_s,
        "step_s": _median([at_reference_speed(iv) for o in ok for iv in steps(kind, o)]),
        "op_s": _median([o.ref_seconds for o in ok]),
        "peak_rss_mb": peak_rss_mb,
        "test_rmse": quality.get("test_rmse", math.nan),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def detail(kind: str, setup_s: float, ops: list[OpResult], peak_rss_mb: float,
           quality: dict) -> dict:
    """Every end-to-end metric under the names the issue defines, as raw wall time."""
    ok = _untraced_ok(ops)
    out = {"setup_s": {"value": setup_s, "unit": "s"}}
    if kind == "train":
        out.update(timing("fit_s", [o.seconds for o in ok]))
        out.update(timing("epoch_s", [s for o in ok for s, _ in epochs(o, checked=False)]))
        out.update(timing("check_epoch_s", [s for o in ok for s, _ in epochs(o, checked=True)]))
    else:
        out.update(timing("predict_s", [o.seconds for o in ok]))
        seconds = sum(o.seconds for o in ok)
        out["predict_rows_per_s"] = {
            "value": sum(o.rows for o in ok) / seconds if seconds else math.nan, "unit": "1/s"}
    out["calibration_s"] = {"value": _median([c for o in ok for _, c in o.intervals]),
                            "unit": "s"}
    out["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for q, unit in _QUALITY_UNITS.items():
        if q in quality:
            out[q] = {"value": quality[q], "unit": unit}
    attempted = len(ops)
    failed = sum(not o.ok for o in ops)
    out["attempted"] = {"value": attempted, "unit": "count"}
    out["failed"] = {"value": failed, "unit": "count"}
    out["failed_frac"] = {"value": failed / attempted if attempted else math.nan, "unit": "frac"}
    return out


def per_layer(ops: list[OpResult]) -> dict:
    """Per-op averages over the successful traced ops, plus tracing overhead."""
    traced = [o for o in ops if o.ok and o.traced]
    tracers = [o.tracer for o in traced]
    n = len(tracers)
    if n == 0:
        return {k: {"value": math.nan, "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    values = {}
    for span in SPANS:
        stats = [t.spans[span] for t in tracers]
        values[f"{span}.calls"] = sum(s.calls for s in stats) / n
        values[f"{span}.total_s"] = sum(s.total_s for s in stats) / n
        values[f"{span}.self_s"] = sum(s.self_s for s in stats) / n
    raw = {k: sum(t.raw[k] for t in tracers) for k in tracers[0].raw}
    for name, value in count_values(raw).items():
        values[name] = value if name.endswith("_frac") else value / n
    values["trace.unattributed_s"] = _median([o.unattributed_s for o in traced])
    values["trace.overhead_frac"] = (
        _median([o.ref_seconds for o in traced])
        / _median([o.ref_seconds for o in _untraced_ok(ops)]) - 1.0
    )
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def unattributed(op_seconds: float, tracer) -> float:
    """Op time not covered by the self time of any non-root span."""
    return op_seconds - tracer.self_seconds()
