"""dpkl.threads: BLAS pinning without threadpoolctl, and the placement of the
main thread and the kernel workers on the CPUs of the affinity mask."""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import dpkl
from dpkl import classify, cli, threads, trainer
from dpkl.data import synth_blobs, synth_regression
from dpkl.trainer import TrainConfig, TrainData, fit

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="thread placement needs sched_setaffinity"
)

# A paper-size rff fit (m = 50, q = 100, 45 training rows: its trig loops split
# over the workers) and a short exact fit; prints each one's trained particles'
# digest. threadpoolctl is hidden, so BLAS is pinned through the OpenBLAS
# fallback. An argument sets the kernel worker count.
DIGESTS = textwrap.dedent(
    """
    import hashlib, sys
    sys.modules["threadpoolctl"] = None
    from dpkl import threads
    from dpkl.data import synth_regression
    from dpkl.trainer import TrainConfig, TrainData, fit

    if len(sys.argv) > 1:
        threads._WORKERS = int(sys.argv[1])

    ds = synth_regression("sine", n=50, D=1, noise_std=0.1, seed=0)
    for kernel_mode, epochs in (("rff", 3), ("exact", 2)):
        last = []
        fit(TrainData(ds.X, ds.y), TrainConfig(kernel_mode=kernel_mode, max_epochs=epochs, seed=1),
            trajectory_hook=lambda epoch, ens: last.append(ens.flat().tobytes()))
        print(kernel_mode, hashlib.sha256(last[-1]).hexdigest())
    """
)


def trained_digests(blas_threads: int, cpus=None, workers=None) -> str:
    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = [] if workers is None else [str(workers)]
    result = subprocess.run(
        [sys.executable, "-c", DIGESTS, *args], env=env, capture_output=True, text=True,
        timeout=300,
        preexec_fn=None if cpus is None else (lambda: os.sched_setaffinity(0, cpus)),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def reference_digests():
    return trained_digests(1)


def test_blas_threads_do_not_change_results_without_threadpoolctl(reference_digests):
    assert trained_digests(2) == reference_digests


def test_one_cpu_gives_the_two_cpu_particles(reference_digests):
    assert trained_digests(1, cpus={min(os.sched_getaffinity(0))}) == reference_digests


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_does_not_change_results(reference_digests, workers):
    assert trained_digests(1, workers=workers) == reference_digests


def test_openblas_fallback_pins_and_restores(monkeypatch):
    libs = threads._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    monkeypatch.setattr(threads, "threadpool_limits", None)
    before = [get() for get, _ in libs]
    with threads.single_threaded_blas():
        assert [get() for get, _ in libs] == [1] * len(libs)
    assert [get() for get, _ in libs] == before
    assert threads.pinned_blas_threads() == 1


@pytest.fixture
def placements(monkeypatch):
    """Every sched_setaffinity call, as (thread, cpus), with two kernel workers."""
    monkeypatch.setattr(threads, "_WORKERS", 2)
    calls = []
    setaffinity = os.sched_setaffinity

    def recording(pid, cpus):
        calls.append((threading.current_thread(), set(cpus)))
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    return calls


def tiny_config(**overrides):
    return TrainConfig(**dict(m=3, q=8, hidden_dims=(4,), max_epochs=2, seed=3, **overrides))


def sine_data():
    ds = synth_regression("sine", n=20, D=1, noise_std=0.1, seed=0)
    return TrainData(ds.X, ds.y)


def write_sine_csv(path, n):
    ds = synth_regression("sine", n=n, D=1, noise_std=0.1, seed=0)
    rows = zip(ds.X[:, 0].tolist(), ds.y.tolist())
    path.write_text("x0,y\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows))
    return path


class TestCallerPlacement:
    def test_fit_runs_on_the_first_cpu_and_restores_the_mask(self, placements):
        mask = os.sched_getaffinity(0)
        inside = []
        fit(sine_data(), tiny_config(), trajectory_hook=lambda e, ens: inside.append(
            os.sched_getaffinity(0)))
        assert inside and all(cpus == {min(mask)} for cpus in inside)
        assert os.sched_getaffinity(0) == mask
        assert [cpus for _, cpus in placements] == [{min(mask)}, mask]

    def test_fit_classifier_restores_the_mask(self, placements):
        mask = os.sched_getaffinity(0)
        ds = synth_blobs(C=2, n_per_class=8, d_in=2, separation=4.0, seed=0)
        inside = []
        classify.fit_classifier(TrainData(ds.X, ds.y), tiny_config(), trajectory_hook=(
            lambda e, ens, head: inside.append(os.sched_getaffinity(0))))
        assert inside and all(cpus == {min(mask)} for cpus in inside)
        assert os.sched_getaffinity(0) == mask

    def test_predict_restores_the_mask(self, placements, tmp_path):
        data = write_sine_csv(tmp_path / "sine.csv", 30)
        run = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--target", "y", "--n-labeled", "20",
                         "--m", "2", "--q", "8", "--max-epochs", "1", "--hidden-dims", "4",
                         "--out", str(run)]) == 0
        mask = os.sched_getaffinity(0)
        placements.clear()
        assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.json"),
                         "--data", str(data), "--out", str(tmp_path / "pred.csv")]) == 0
        assert [cpus for _, cpus in placements] == [{min(mask)}, mask]
        assert os.sched_getaffinity(0) == mask

    def test_a_fit_that_raises_restores_the_mask(self, placements):
        mask = os.sched_getaffinity(0)

        def fail(epoch, ensemble):
            raise KeyError("stop")

        with pytest.raises(KeyError):
            fit(sine_data(), tiny_config(), trajectory_hook=fail)
        assert placements and os.sched_getaffinity(0) == mask

    def test_no_placement_at_one_worker(self, placements, monkeypatch):
        monkeypatch.setattr(threads, "_WORKERS", 1)
        fit(sine_data(), tiny_config())
        assert placements == []

    def test_no_placement_off_the_main_thread(self, placements):
        t = threading.Thread(target=fit, args=(sine_data(), tiny_config()))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert placements == []

    def test_benchmark_cells_are_not_placed(self, placements, tmp_path, monkeypatch):
        mask = os.sched_getaffinity(0)
        cells, fit = [], trainer.fit

        def recording_fit(*args, **kwargs):
            cells.append((threading.current_thread(), os.sched_getaffinity(0)))
            return fit(*args, **kwargs)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        data = write_sine_csv(tmp_path / "sine.csv", 40)
        assert cli.main(["benchmark", "--data", str(data), "--target", "y", "--sizes", "10,12",
                         "--trials", "1", "--workers", "2", "--m", "2", "--q", "8",
                         "--max-epochs", "1", "--hidden-dims", "4",
                         "--out", str(tmp_path / "bench")]) == 0
        # the cells run on their own threads, with the whole mask
        assert placements == []
        assert cells and all(t is not threading.main_thread() for t, _ in cells)
        assert all(cpus == mask for _, cpus in cells)


class TestWorkerPlacement:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_worker_runs_on_a_cpu_after_the_callers(self, monkeypatch, workers):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(threads, "_pools", {})
        cpus = sorted(os.sched_getaffinity(0))
        seen = {}
        barrier = threading.Barrier(workers, timeout=10)  # every range on its own thread

        def record(a, b):
            barrier.wait()
            seen[a] = (threading.current_thread(), os.sched_getaffinity(0))

        try:
            threads._split(workers, 1, record)
        finally:
            threads._pools[os.getpid()].shutdown()
        assert seen[0] == (threading.main_thread(), set(cpus))
        workers_cpus = sorted(min(c) for t, c in seen.values() if t is not threading.main_thread())
        assert workers_cpus == sorted(cpus[i % len(cpus)] for i in range(1, workers))
