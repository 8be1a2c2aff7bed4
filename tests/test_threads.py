"""dpkl.threads: BLAS pinning through the loaded OpenBLAS, in training and in
library prediction, and the placement of the kernel workers on the CPUs of the
affinity mask; no other thread is moved."""

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
# digest. An argument sets the kernel worker count.
DIGESTS = textwrap.dedent(
    """
    import hashlib, sys
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


def test_blas_threads_do_not_change_results(reference_digests):
    assert trained_digests(2) == reference_digests


def test_one_cpu_gives_the_two_cpu_particles(reference_digests):
    assert trained_digests(1, cpus={min(os.sched_getaffinity(0))}) == reference_digests


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_does_not_change_results(reference_digests, workers):
    assert trained_digests(1, workers=workers) == reference_digests


def test_openblas_pin_takes_one_thread_and_restores():
    libs = threads._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    assert threads._openblas() is libs  # looked up once per process
    before = [get() for get, _ in libs]
    with threads.single_threaded_blas():
        assert [get() for get, _ in libs] == [1] * len(libs)
    assert [get() for get, _ in libs] == before
    assert threads.pinned_blas_threads() == 1


def test_overlapping_blocks_on_two_threads_share_one_pin(monkeypatch):
    # A enters, B enters, A leaves, B reads and leaves: B stays pinned after A
    # leaves, and the threads found at the first entry come back after the last
    counts = [2]
    libs = [(lambda: counts[0], lambda n: counts.__setitem__(0, n))]
    monkeypatch.setattr(threads, "_openblas", lambda: libs)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with threads.single_threaded_blas():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with threads.single_threaded_blas():
            b_in.set()
            a_out.wait(10)
            seen.append(counts[0])

    workers = [threading.Thread(target=f) for f in (a, b)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(10)
    assert seen == [1]
    assert counts == [2]


# Library prediction, called outside any fit, with BLAS at two threads: prints
# the most OpenBLAS threads seen by the GP posterior of predict_regression and
# by the logits of predict_probs.
PREDICT_BLAS = textwrap.dedent(
    """
    import numpy as np
    from dpkl import classify, gp, net, threads
    from dpkl.kernels import LatentKernelSpec
    from dpkl.trainer import predict_regression

    seen = []

    def counting(f):
        def wrapped(*args, **kwargs):
            seen.append(max(get() for get, _ in threads._openblas()))
            return f(*args, **kwargs)
        return wrapped

    gp.posterior_batch = counting(gp.posterior_batch)
    classify.logits = counting(classify.logits)
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(20, 3)), rng.normal(size=20)
    ens = net.init_ensemble(net.MlpArchitecture(3, (8,), 2), 4, 0)
    predict_regression(ens, LatentKernelSpec(0.5, 1.0), X, y, X[:5], 0.1)
    classify.predict_probs(ens, classify.init_head(3, 2, 4, 0), X)
    print(*seen)
    """
)


def test_library_prediction_runs_one_blas_thread():
    libs = threads._openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", PREDICT_BLAS], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "1"]


# A fit and a `dpkl train`, with BLAS at two threads and a threadpoolctl that
# raises on import first on sys.path: prints the most OpenBLAS threads seen by
# the fit's epochs, the report's blas_threads, whether threadpoolctl was
# imported, and where it would be imported from.
NO_THREADPOOLCTL = textwrap.dedent(
    """
    import importlib.util, json, sys
    from pathlib import Path
    from dpkl import cli, threads
    from dpkl.data import synth_regression
    from dpkl.trainer import TrainConfig, TrainData, fit

    data, out = sys.argv[1:]
    seen = []
    ds = synth_regression("sine", n=20, D=1, noise_std=0.1, seed=0)
    fit(TrainData(ds.X, ds.y), TrainConfig(m=2, q=8, hidden_dims=(4,), max_epochs=2, seed=0),
        trajectory_hook=lambda e, ens: seen.append(max(get() for get, _ in threads._openblas())))
    assert cli.main(["train", "--data", data, "--target", "y", "--n-labeled", "20", "--m", "2",
                     "--q", "8", "--max-epochs", "1", "--hidden-dims", "4", "--out", out]) == 0
    env = json.loads(Path(out, "report.json").read_text())["environment"]
    print(max(seen), env["blas_threads"], "threadpoolctl" in sys.modules,
          importlib.util.find_spec("threadpoolctl").origin)
    """
)


def test_pin_never_imports_threadpoolctl(tmp_path):
    if not threads._openblas():
        pytest.skip("no OpenBLAS loaded")
    stub = tmp_path / "stub" / "threadpoolctl.py"
    stub.parent.mkdir()
    stub.write_text("raise RuntimeError('threadpoolctl imported')\n")
    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [str(stub.parent), src, os.environ.get("PYTHONPATH", "")]))
    data = write_sine_csv(tmp_path / "sine.csv", 30)
    result = subprocess.run([sys.executable, "-c", NO_THREADPOOLCTL, str(data),
                             str(tmp_path / "run")], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["1", "1", "False", str(stub)]


def write_sine_csv(path, n):
    ds = synth_regression("sine", n=n, D=1, noise_std=0.1, seed=0)
    rows = zip(ds.X[:, 0].tolist(), ds.y.tolist())
    path.write_text("x0,y\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows))
    return path


@pytest.fixture
def placements(monkeypatch):
    """Every sched_setaffinity call, as (thread, cpus), with two kernel workers,
    a fresh pool and every loop split."""
    monkeypatch.setattr(threads, "_WORKERS", 2)
    monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
    monkeypatch.setattr(threads, "_pools", {})
    calls = []
    setaffinity = os.sched_setaffinity

    def recording(pid, cpus):
        calls.append((threading.current_thread(), set(cpus)))
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    yield calls
    pool = threads._pools.get(os.getpid())
    if pool is not None:
        pool.shutdown()


def only_workers_moved(placements):
    return all(t.name.startswith("dpkl-kernel") for t, _ in placements)


def tiny_config(**overrides):
    return TrainConfig(**dict(m=3, q=8, hidden_dims=(4,), max_epochs=2, seed=3, **overrides))


def sine_data():
    ds = synth_regression("sine", n=20, D=1, noise_std=0.1, seed=0)
    return TrainData(ds.X, ds.y)


SMALL = ["--m", "2", "--q", "8", "--max-epochs", "1", "--hidden-dims", "4"]


class TestCallerPlacement:
    """No dpkl call moves its caller: the caller's mask, and a hook's, stay as
    the user set them, with nothing to restore; only kernel workers are pinned."""

    def test_fit_runs_on_the_first_cpu_and_restores_the_mask(self, placements):
        # fit's split ranges run on the workers, placed from the mask's first CPU
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        inside = []
        fit(sine_data(), tiny_config(), trajectory_hook=lambda e, ens: inside.append(
            os.sched_getaffinity(0)))
        assert inside and all(c == mask for c in inside)
        assert os.sched_getaffinity(0) == mask
        assert only_workers_moved(placements)
        assert sorted(min(c) for _, c in placements) == sorted(cpus[i % len(cpus)] for i in (0, 1))

    def test_fit_classifier_restores_the_mask(self, placements):
        mask = os.sched_getaffinity(0)
        ds = synth_blobs(C=2, n_per_class=8, d_in=2, separation=4.0, seed=0)
        inside = []
        classify.fit_classifier(TrainData(ds.X, ds.y), tiny_config(), trajectory_hook=(
            lambda e, ens, head: inside.append(os.sched_getaffinity(0))))
        assert inside and all(c == mask for c in inside)
        assert os.sched_getaffinity(0) == mask
        assert only_workers_moved(placements)

    def test_predict_restores_the_mask(self, placements, tmp_path):
        mask = os.sched_getaffinity(0)
        data = write_sine_csv(tmp_path / "sine.csv", 30)
        run = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--target", "y", "--n-labeled", "20",
                         *SMALL, "--out", str(run)]) == 0
        assert os.sched_getaffinity(0) == mask
        assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.json"),
                         "--data", str(data), "--out", str(tmp_path / "pred.csv")]) == 0
        assert os.sched_getaffinity(0) == mask
        assert placements and only_workers_moved(placements)

    def test_a_fit_that_raises_restores_the_mask(self, placements):
        mask = os.sched_getaffinity(0)

        def fail(epoch, ensemble):
            raise KeyError("stop")

        with pytest.raises(KeyError):
            fit(sine_data(), tiny_config(), trajectory_hook=fail)
        assert os.sched_getaffinity(0) == mask
        assert only_workers_moved(placements)

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
        for workers in ("1", "2"):
            assert cli.main(["benchmark", "--data", str(data), "--target", "y",
                             "--sizes", "10,12", "--trials", "1", "--workers", workers,
                             *SMALL, "--out", str(tmp_path / f"bench{workers}")]) == 0
        # one worker runs the cells on the main thread, two on their own threads;
        # either way with the whole mask
        assert cells and all(cpus == mask for _, cpus in cells)
        assert any(t is not threading.main_thread() for t, _ in cells)
        assert only_workers_moved(placements)
        assert os.sched_getaffinity(0) == mask


class TestWorkerPlacement:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_i_runs_on_cpu_i_of_the_mask(self, monkeypatch, workers):
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
        assert len(seen) == workers
        assert all(t is not threading.main_thread() for t, _ in seen.values())
        assert all(len(c) == 1 for _, c in seen.values())
        assert sorted(min(c) for _, c in seen.values()) == sorted(
            cpus[i % len(cpus)] for i in range(workers))
