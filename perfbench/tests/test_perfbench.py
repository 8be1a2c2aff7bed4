"""Tests of the benchmark's own code: statistics, spans, failures, names."""

import json
import re
from pathlib import Path

import pytest

import metrics
import spans
from metrics import OpResult
from speed import REF_S

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# percentile / sample-count rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, tail",
    [(0, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_has_at_least_ten_samples_beyond_it(n, tail):
    assert metrics.tail_percentile(n) == tail


def test_timing_reports_p50_tail_and_count():
    out = metrics.timing("epoch_s", [float(i) for i in range(1, 101)])
    assert set(out) == {"epoch_s.n", "epoch_s.p50", "epoch_s.p90"}
    assert out["epoch_s.n"]["value"] == 100
    assert out["epoch_s.p50"] == {"value": 50.5, "unit": "s"}
    assert sum(v > out["epoch_s.p90"]["value"] for v in range(1, 101)) == 10


def test_timing_with_few_samples_has_no_tail():
    out = metrics.timing("fit_s", [3.0, 1.0, 2.0])
    assert set(out) == {"fit_s.n", "fit_s.p50"}
    assert out["fit_s.p50"]["value"] == 2.0


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(span_names=("outer", "middle", "inner"), clock=clock)

    def inner():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        w_inner()

    def outer():
        clock.t += 1.0
        w_middle()
        clock.t += 3.0
        w_inner()

    w_inner = tracer.wrap("inner", inner)
    w_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    s = tracer.spans
    assert (s["outer"].calls, s["outer"].total_s, s["outer"].self_s) == (1, 9.0, 4.0)
    assert (s["middle"].calls, s["middle"].total_s, s["middle"].self_s) == (1, 3.0, 1.0)
    assert (s["inner"].calls, s["inner"].total_s, s["inner"].self_s) == (2, 4.0, 4.0)
    # self times partition the root's duration
    assert sum(x.self_s for x in s.values()) == s["outer"].total_s


def test_unattributed_is_op_time_outside_non_root_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(span_names=("trainer.fit", "net.forward"), clock=clock)

    def forward():
        clock.t += 2.0

    def fit():
        clock.t += 1.0
        w_forward()

    w_forward = tracer.wrap("net.forward", forward)
    tracer.wrap("trainer.fit", fit)()
    assert tracer.self_seconds() == 2.0
    assert metrics.unattributed(3.5, tracer) == 1.5


def test_a_hook_that_cannot_read_the_call_does_not_fail_it():
    tracer = spans.Tracer(span_names=("kernels.empirical_cross_block",))
    wrapped = tracer.wrap("kernels.empirical_cross_block", lambda *a: "ok")
    assert wrapped("no embeddings here") == "ok"
    assert tracer.hook_errors == {"kernels.empirical_cross_block"}
    assert tracer.spans["kernels.empirical_cross_block"].calls == 1


def test_span_is_recorded_when_the_function_raises():
    clock = FakeClock()
    tracer = spans.Tracer(span_names=("boom",), clock=clock)

    def boom():
        clock.t += 1.5
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert (tracer.spans["boom"].calls, tracer.spans["boom"].self_s) == (1, 1.5)
    assert tracer._stack == []


def test_install_rebinds_imported_names_and_uninstall_restores():
    from dpkl import classify, gp, linalg, trainer

    originals = (linalg.solve_chol, trainer.solve_chol, trainer._kappa_matrix,
                 classify._kappa_matrix, gp.nll_grad_kernel)
    tracer = spans.Tracer(span_names=(
        "linalg.solve_chol", "trainer._kappa_matrix", "gp.nll_grad_kernel",
        "linalg.no_such_function",
    ))
    tracer.install()
    try:
        assert linalg.solve_chol is trainer.solve_chol is not originals[0]
        assert classify._kappa_matrix is trainer._kappa_matrix is not originals[2]
        assert tracer.absent == ["linalg.no_such_function"]
    finally:
        tracer.uninstall()
    assert (linalg.solve_chol, trainer.solve_chol, trainer._kappa_matrix,
            classify._kappa_matrix, gp.nll_grad_kernel) == originals


def test_counts_come_from_shapes_and_results():
    import numpy as np

    from dpkl import kernels, linalg, trainer

    tracer = spans.Tracer()
    tracer.install()
    try:
        spec = kernels.LatentKernelSpec()
        a = [np.zeros((3, 2)) for _ in range(4)]
        b = [np.ones((5, 2)) for _ in range(4)]
        kernels.empirical_cross_block(spec, a, b)
        linalg.cholesky(np.zeros((2, 2)), 1e-8)  # singular: needs the first rung
        flat = np.array([[0.0], [np.sqrt(720.0)]])
        trainer._kappa_matrix(flat, 1.0)  # exp(-720) is subnormal
    finally:
        tracer.uninstall()
    counts = spans.count_values(tracer.raw)
    assert counts["kernels.base_evals"] == 4 * 3 * 4 * 5
    assert counts["linalg.cholesky.jitter_retries"] == 1
    assert counts["trainer.kappa.subnormal_frac"] == 0.5


@pytest.mark.parametrize("jitter, step", [(0.0, 0), (1e-8, 1), (1e-6, 3), (1e-2, 7)])
def test_jitter_step(jitter, step):
    assert spans.jitter_step(jitter, 1e-8) == step


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


def _op(seconds, ok=True, digest="d", traced=False, calib=REF_S):
    """A training op of ten equal epochs, none of them checked."""
    return OpResult(ok=ok, digest=digest, tracer=spans.Tracer() if traced else None,
                    intervals=[(0.0, calib)] + [(seconds / 10, calib)] * 10 + [(0.0, calib)],
                    checked=[False] * 10)


def test_failed_ops_are_excluded_from_every_timing():
    ops = [_op(2.0), _op(0.006, ok=False), _op(4.0)]
    e2e = metrics.end_to_end("train", 1.0, ops, 100.0, {"test_rmse": 0.5})
    assert e2e["op_s"]["value"] == pytest.approx(3.0)
    assert e2e["step_s"]["value"] == pytest.approx(0.3)
    det = metrics.detail("train", 1.0, ops, 100.0, {})
    assert det["fit_s.n"]["value"] == 2
    assert det["epoch_s.n"]["value"] == 20
    assert (det["attempted"]["value"], det["failed"]["value"]) == (3, 1)
    assert det["failed_frac"]["value"] == pytest.approx(1 / 3)


def test_gated_timings_are_at_reference_speed_and_detail_is_raw():
    slow = _op(2.0, calib=2 * REF_S)  # the host ran at half speed
    e2e = metrics.end_to_end("train", 1.0, [slow], 100.0, {})
    assert e2e["op_s"]["value"] == pytest.approx(1.0)
    assert e2e["step_s"]["value"] == pytest.approx(0.1)
    assert metrics.detail("train", 1.0, [slow], 100.0, {})["fit_s.p50"]["value"] == pytest.approx(2.0)


def test_epochs_map_hook_intervals_to_check_flags():
    op = OpResult(intervals=[(9.0, 1), (1.0, 1), (5.0, 1), (2.0, 1), (8.0, 1)],
                  checked=[False, True, False])
    assert metrics.epochs(op, checked=False) == [(1.0, 1), (2.0, 1)]
    assert metrics.epochs(op, checked=True) == [(5.0, 1)]
    assert metrics.steps("predict", op) == op.intervals
    assert op.seconds == 25.0


def test_a_digest_change_fails_the_op():
    ops = [_op(1.0, digest="a"), _op(1.0, digest="b"), _op(1.0, digest="a")]
    assert metrics.check_digests(ops) == "a"
    assert [o.ok for o in ops] == [True, False, True]


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_format(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16 and 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_emitted_metrics_match_benchmark_json(bench):
    import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == metrics.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == metrics.PER_LAYER

    ops = [_op(1.0), _op(1.1, traced=True)]
    e2e = metrics.end_to_end("predict", 0.5, ops, 100.0, {"test_rmse": 1.0})
    assert {k: v["unit"] for k, v in e2e.items()} == {k: u for k, (u, _) in metrics.END_TO_END.items()}
    layer = metrics.per_layer(ops)
    assert {k: v["unit"] for k, v in layer.items()} == {k: u for k, (u, _) in metrics.PER_LAYER.items()}
    assert layer["trace.overhead_frac"]["value"] == pytest.approx(0.1)
