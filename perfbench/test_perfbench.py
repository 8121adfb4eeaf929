"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Workloads run at tiny sizes here; the command-line checks run the real
``serve`` workload for a fraction of a second.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

from tracer import Tracer  # noqa: E402
from workloads import Replay, Serve, Train  # noqa: E402

TINY = {
    "serve": lambda: Serve(pool=10, block=2, warmup=1),
    # three small-batch epochs learn less than the full round: a wider range
    "train": lambda: Train(frames=200, epochs=3, batch_size=8,
                           l1_ratio_range=(0.5, 1.5)),
    "replay": lambda: Replay(frames=60, frame_size=64, pad=8, image_size=32,
                             batch_size=8),
}


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(run.OUT_DIR, "test-" + request.node.name.replace("/", "_"))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield pathlib.Path(path)
    shutil.rmtree(path, ignore_errors=True)


def definition():
    return run.load_definition()


def tiny(name):
    return TINY[name]()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_once_at_tiny_size(name, tmp_path):
    workload = tiny(name)
    workload.setup(3, str(tmp_path))
    unit = workload.run_unit()
    assert unit.ops and unit.failed == 0 and unit.frames > 0
    assert all(end > start for start, end in unit.ops)


def test_failed_check_counts_as_failed_op(tmp_path):
    workload = tiny("serve")
    workload.setup(3, str(tmp_path))
    workload.expected = [(s + 1.0, p) for s, p in workload.expected]
    assert workload.run_unit().failed == workload.block


def _inputs(name, seed, work):
    workload = tiny(name)
    work.mkdir()
    workload.setup(seed, str(work))
    if name == "serve":
        return np.stack(workload.images)
    if name == "train":
        return workload.train_data[0]["image"]
    with open(workload.telemetry, "rb") as fh:
        return np.frombuffer(fh.read(), dtype=np.uint8)


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_decides_inputs(name, tmp_path):
    one = _inputs(name, 1, tmp_path / "a")
    assert np.array_equal(one, _inputs(name, 1, tmp_path / "b"))
    two = _inputs(name, 2, tmp_path / "c")
    assert one.shape != two.shape or not np.array_equal(one, two)


def test_traced_runs_yield_every_per_layer_metric(tmp_path):
    produced = {}
    for name in sorted(TINY):
        metrics, units, tracer = run.traced_run(lambda: tiny(name), 5, 0.0,
                                                str(tmp_path / name))
        assert sum(u.failed for u in units) == 0
        for metric, value in metrics.items():
            if value:
                produced.setdefault(metric, name)
    wanted = [m["name"] for m in definition()["per_layer"]]
    missing = [m for m in wanted if m not in produced]
    assert not missing, f"per-layer metrics never produced: {missing}"


def test_tracer_self_time_and_restore():
    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    box = Box()
    tracer = Tracer()
    tracer.patch(box, "inner", "inner")
    tracer.patch(box, "outer", "outer")
    assert box.outer() == 2
    tracer.restore()
    assert "inner" not in vars(box) and "outer" not in vars(box)
    names, starts, ends, dur, self_ns = tracer.arrays()
    assert list(names) == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert self_ns[0] == dur[0] - dur[1] and self_ns[1] == dur[1]
    assert starts[0] <= starts[1] and ends[1] <= ends[0]


def _cli(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_metric_with_unit(trace):
    out = _cli("--workload", "serve", "--seed", "4", "--seconds", "0.1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    listed = definition()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert env["seed"] == 4 and env["blas"]["threads"] == run.BLAS_THREADS
    assert 1 <= env["blas_threads_set"] <= env["nproc"]


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(definition()))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
