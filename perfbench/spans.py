"""Span tracer that wraps dpkl functions at each module boundary.

Wrappers are installed by rebinding attributes: every dpkl module namespace
that holds a reference to a wrapped function (its defining module, and any
module that imported it by name) gets the wrapper, and ``uninstall`` puts the
originals back. The library source is never edited.

Spans are aggregated in memory per ``module.function`` name. A span's self
time is its duration minus the durations of its direct child spans; the
process is single-threaded, so spans nest strictly. Counting hooks run after
a span has closed, so their cost lands in the parent's self time and in the
measured tracing overhead, never in the span itself.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

# Public entry points the benchmark calls; one of them encloses each traced op.
ROOTS = ("trainer.fit", "classify.fit_classifier", "cli.main")

SPANS = ROOTS + (
    "trainer.functional_gradient_step",
    "trainer.median_heuristic",
    "trainer._kappa_matrix",
    "trainer.predict_regression",
    "net.forward",
    "net.backward_params",
    "kernels.empirical_cross_block",
    "kernels.kernel_embedding_cotangents",
    "kernels.rff_feature_matrix",
    "kernels.rff_embedding_cotangents",
    "kernels.cross_kernel_batch",
    "gp.gp_state_exact",
    "gp.gp_state_rff",
    "gp.nll_grad_kernel",
    "gp.posterior_batch",
    "linalg.cholesky",
    "linalg.solve_chol",
    "checkpoint.load_checkpoint",
    "data.load_csv",
    "cli.write_csv",
    "classify.batch_grads",
    "classify.batch_objective",
    "classify._joint_median_heuristic",
)

# Counts derived from argument shapes and return values; name -> unit.
COUNTS = {
    "kernels.base_evals": "count",
    "kernels.rff_cos_evals": "count",
    "linalg.cholesky.jitter_retries": "count",
    "net.rows_forwarded": "count",
    "checkpoint.load_checkpoint.bytes": "bytes",
    "trainer.kappa.subnormal_frac": "frac",
    "classify.logging_forward_frac": "frac",
}

_TINY = np.finfo(np.float64).tiny


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(embeddings) -> int:
    """Particles x rows of a list of per-particle embedding matrices."""
    return len(embeddings) * embeddings[0].shape[0]


def jitter_step(jitter: float, base_jitter: float) -> int:
    """Position on linalg.cholesky's ladder: 0 for no jitter, k+1 for base*10**k."""
    if jitter == 0.0 or base_jitter <= 0.0:
        return 0
    return int(round(math.log10(jitter / base_jitter))) + 1


class Tracer:
    """In-memory span aggregates and counts for the ops run while installed."""

    def __init__(self, span_names=SPANS, clock=time.perf_counter):
        self.span_names = tuple(span_names)
        self.clock = clock
        self.spans = {name: SpanStats() for name in self.span_names}
        self.raw = dict.fromkeys(
            ("base_evals", "rff_cos_evals", "jitter_retries", "forward_calls",
             "logging_forwards", "rows_forwarded", "ckpt_bytes", "kappa_entries",
             "kappa_subnormal"),
            0,
        )
        self.absent: list[str] = []
        # spans whose counting hook could not read the call, e.g. after a
        # signature change; the call itself is unaffected
        self.hook_errors: set[str] = set()
        self.wrappers: dict = {}  # original function -> its installed wrapper
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped as span ``name``."""
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._stack.pop()
                s = self.spans[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a count must never fail the traced op
                    self.hook_errors.add(name)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every span's function in all loaded dpkl modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dpkl" or n.startswith("dpkl.")]
        self.absent = []
        for name in self.span_names:
            mod_name, fn_name = name.rsplit(".", 1)
            mod = sys.modules.get(f"dpkl.{mod_name}")
            original = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            self.wrappers[original] = wrapped
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()
        self.wrappers.clear()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- reporting ----------------------------------------------------------

    def self_seconds(self) -> float:
        """Summed self time of every span except the roots."""
        return sum(s.self_s for n, s in self.spans.items() if n not in ROOTS)


def count_values(r: dict) -> dict[str, float]:
    """COUNTS from raw tallies (summed over any number of tracers)."""
    return {
        "kernels.base_evals": r["base_evals"],
        "kernels.rff_cos_evals": r["rff_cos_evals"],
        "linalg.cholesky.jitter_retries": r["jitter_retries"],
        "net.rows_forwarded": r["rows_forwarded"],
        "checkpoint.load_checkpoint.bytes": r["ckpt_bytes"],
        "trainer.kappa.subnormal_frac": r["kappa_subnormal"] / r["kappa_entries"]
        if r["kappa_entries"] else 0.0,
        "classify.logging_forward_frac": r["logging_forwards"] / r["forward_calls"]
        if r["forward_calls"] else 0.0,
    }


# -- counting hooks: (tracer, args, kwargs, result) ---------------------------


def _cross_block(t, args, kwargs, result):
    a = _arg(args, kwargs, 1, "embeddings_a")
    b = _arg(args, kwargs, 2, "embeddings_b")
    t.raw["base_evals"] += _rows(a) * _rows(b)


def _exact_cotangents(t, args, kwargs, result):
    t.raw["base_evals"] += _rows(_arg(args, kwargs, 1, "embeddings")) ** 2


def _cross_batch(t, args, kwargs, result):
    # the K_* block is counted by the nested empirical_cross_block span; this
    # is the per-query self-average loop, m^2 evaluations per query row
    q = _arg(args, kwargs, 2, "query_embeddings")
    t.raw["base_evals"] += len(q) * _rows(q)


def _rff_features(t, args, kwargs, result):
    basis = _arg(args, kwargs, 0, "basis")
    t.raw["rff_cos_evals"] += _rows(_arg(args, kwargs, 1, "embeddings")) * basis.q


def _forward(t, args, kwargs, result):
    t.raw["forward_calls"] += 1
    t.raw["rows_forwarded"] += result.shape[0]
    if t.inside("classify.batch_objective"):
        t.raw["logging_forwards"] += 1


def _cholesky(t, args, kwargs, result):
    base = _arg(args, kwargs, 1, "base_jitter", 1e-8)
    t.raw["jitter_retries"] += jitter_step(result.jitter_used, base)


def _kappa(t, args, kwargs, result):
    t.raw["kappa_entries"] += result.size
    t.raw["kappa_subnormal"] += int(np.count_nonzero((result > 0.0) & (result < _TINY)))


def _load_checkpoint(t, args, kwargs, result):
    t.raw["ckpt_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_HOOKS = {
    "kernels.empirical_cross_block": _cross_block,
    "kernels.kernel_embedding_cotangents": _exact_cotangents,
    "kernels.cross_kernel_batch": _cross_batch,
    "kernels.rff_feature_matrix": _rff_features,
    "net.forward": _forward,
    "linalg.cholesky": _cholesky,
    "trainer._kappa_matrix": _kappa,
    "checkpoint.load_checkpoint": _load_checkpoint,
}
