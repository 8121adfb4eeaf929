"""Latency harness: report structure and the layer-sum consistency bound."""
import os
from time import perf_counter_ns

import numpy as np
import pytest

from conedrive import workers
from conedrive.bench import bench_forward, hardware_description, write_latency_report
from conedrive.graph import Model
from conedrive.zoo import (make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)


@pytest.fixture(scope="module")
def small_report():
    model = Model(make_realvalue_model("3CL-2FC", input_hw=32), seed=0)
    return model, bench_forward(model, warmup=5, iters=100, seed=0)


def test_per_layer_count_equals_node_count(small_report):
    model, report = small_report
    assert len(report.layers) == len(model.order)
    assert [t.name for t in report.layers] == model.node_names()


def test_structure_deterministic_across_reports(small_report):
    model, report = small_report
    again = bench_forward(model, warmup=5, iters=100, seed=1)
    assert [(t.name, t.kind) for t in report.layers] == \
        [(t.name, t.kind) for t in again.layers]


def test_stddev_finite_for_100_iters(small_report):
    _, report = small_report
    assert np.isfinite(report.end_to_end_std_ns)
    for t in report.layers:
        assert np.isfinite(t.std_ns)


def test_layer_sum_within_10_percent_at_full_scale():
    # instrumentation overhead is bounded relative to real per-node work, so
    # the consistency check runs at the model's actual 256x256 input size
    model = Model(make_realvalue_model("4CL-3FC"), seed=0)
    report = bench_forward(model, warmup=10, iters=120, seed=0)
    assert abs(report.layer_sum_ns - report.end_to_end_mean_ns) \
        <= 0.10 * report.end_to_end_mean_ns


def test_submodel_is_faster_than_supermodel():
    # 2CL-1FC = 1CL-1FC plus one conv block on the same 256x256 input. The
    # gap (~15%) is below the per-call spread, so the two forwards alternate
    # on every iteration (load drift hits both alike) and medians are
    # compared (a few slow calls cannot move them).
    models = [Model(make_discrete_model(name), seed=0)
              for name in ("1CL-1FC", "2CL-1FC")]
    x = np.random.default_rng(0).random((1, 3, 256, 256), dtype=np.float32)
    times = [[], []]
    for i in range(110):
        for model, record in zip(models, times):
            t0 = perf_counter_ns()
            model.forward({"image": x}, mode="eval")
            if i >= 10:  # warmup
                record.append(perf_counter_ns() - t0)
    small, big = (np.median(record) for record in times)
    assert big > small


def test_iters_floor_enforced():
    model = Model(make_realvalue_model("3CL-2FC", input_hw=32), seed=0)
    with pytest.raises(ValueError, match="iters"):
        bench_forward(model, iters=50)


def test_per_kind_aggregation_covers_conv_and_linear(small_report):
    _, report = small_report
    assert "conv" in report.per_kind_mean_ns
    assert "linear" in report.per_kind_mean_ns


def test_report_files(tmp_path, small_report):
    _, report = small_report
    txt, tsv = tmp_path / "lat.txt", tmp_path / "lat.tsv"
    write_latency_report(report, txt, tsv)
    assert "end_to_end_mean_ms" in txt.read_text()
    lines = tsv.read_text().splitlines()
    assert lines[0] == "node\tkind\tmean_ns\tstd_ns"
    assert lines[-1].startswith("end_to_end")
    assert len(lines) == 2 + len(report.layers)


def test_report_adds_median_p90_and_numeric_environment(small_report, monkeypatch):
    _, report = small_report
    lines = report.to_text().splitlines()
    at = lines.index(f"end_to_end_mean_ms: {report.end_to_end_mean_ns / 1e6:.4f}")
    assert lines[at + 2] == f"end_to_end_p10_ms: {report.end_to_end_p10_ns / 1e6:.4f}"
    assert lines[at + 3] == \
        f"end_to_end_median_ms: {report.end_to_end_median_ns / 1e6:.4f}"
    assert lines[at + 4] == f"end_to_end_p90_ms: {report.end_to_end_p90_ns / 1e6:.4f}"
    assert 0 < report.end_to_end_p10_ns <= report.end_to_end_median_ns \
        <= report.end_to_end_p90_ns
    assert f"numpy {np.__version__}; blas " in report.hardware
    assert report.hardware.endswith(
        f"; cpus={os.cpu_count()}; workers={workers.WORKERS}")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(workers, "WORKERS", 3)
    assert hardware_description().endswith(
        f"; OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset; cpus={os.cpu_count()}; "
        "workers=3")


def test_brake_throttle_model_benches():
    model = Model(make_brake_throttle_model(input_hw=32), seed=0)
    report = bench_forward(model, warmup=2, iters=100, seed=0)
    assert "warmup: 2  iters: 100\n" in report.to_text()
    assert len(report.layers) == len(model.order)
