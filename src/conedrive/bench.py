"""Single-frame forward-latency measurement with per-node accounting.

Each iteration times the whole forward pass with the monotonic clock and
keeps the time of every node's layer that the forward's observer reports;
warmup iterations are excluded. Every input is a batch of one frame, the
controller's serving shape, built once before the loop, so timing never
includes input preparation. A batch-1 forward is one chunk of every
convolution, so it runs on the calling thread alone (see ``layers.Conv2d``)
and the loop stays single-threaded; run it on an otherwise idle machine.
Per-layer-kind aggregation reports the mean added latency per conv layer,
per FC layer, and so on.
"""
from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from . import workers
from .graph import Model


@dataclass(frozen=True)
class LayerTiming:
    name: str
    kind: str
    mean_ns: float
    std_ns: float


@dataclass
class LatencyReport:
    layers: list[LayerTiming]
    end_to_end_mean_ns: float
    end_to_end_std_ns: float
    end_to_end_p10_ns: float
    end_to_end_median_ns: float
    end_to_end_p90_ns: float
    warmup: int
    iters: int
    hardware: str
    per_kind_mean_ns: dict[str, float]

    @property
    def layer_sum_ns(self) -> float:
        return sum(t.mean_ns for t in self.layers)

    def to_text(self) -> str:
        lines = [
            f"hardware: {self.hardware}",
            f"warmup: {self.warmup}  iters: {self.iters}",
            f"end_to_end_mean_ms: {self.end_to_end_mean_ns / 1e6:.4f}",
            f"end_to_end_std_ms: {self.end_to_end_std_ns / 1e6:.4f}",
            f"end_to_end_p10_ms: {self.end_to_end_p10_ns / 1e6:.4f}",
            f"end_to_end_median_ms: {self.end_to_end_median_ns / 1e6:.4f}",
            f"end_to_end_p90_ms: {self.end_to_end_p90_ns / 1e6:.4f}",
            f"layer_sum_mean_ms: {self.layer_sum_ns / 1e6:.4f}",
            "mean added latency per layer kind (ms):",
        ]
        for kind, mean in sorted(self.per_kind_mean_ns.items()):
            lines.append(f"  {kind}: {mean / 1e6:.4f}")
        lines.append("per-node mean/std (ms):")
        for t in self.layers:
            lines.append(
                f"  {t.name} ({t.kind}): {t.mean_ns / 1e6:.4f} / {t.std_ns / 1e6:.4f}"
            )
        return "\n".join(lines) + "\n"


def _blas() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def hardware_description() -> str:
    """Machine, interpreter, numpy, BLAS, the BLAS thread variables, the
    CPU count and the worker count of the shared pool (``workers.WORKERS``)."""
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"{platform.machine()} {platform.processor() or 'cpu'}; "
            f"python {sys.version.split()[0]}; numpy {np.__version__}; "
            f"blas {_blas()}; {threads}; cpus={os.cpu_count()}; "
            f"workers={workers.WORKERS}")


def bench_forward(model: Model, warmup: int = 50, iters: int = 1000,
                  seed: int = 0) -> LatencyReport:
    """Measure single-frame eval-mode forward latency; returns per-node and
    end-to-end stats."""
    if iters < 100:
        raise ValueError(f"iters must be >= 100, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    rng = np.random.default_rng(seed)
    inputs = {
        name: rng.random((1,) + shape, dtype=np.float32)
        for name, shape in model.spec.inputs
    }
    for _ in range(warmup):
        model.forward(inputs, mode="eval")

    per_node = {name: [] for name in model.node_names()}

    def record(name, out, elapsed_ns):
        per_node[name].append(elapsed_ns)

    totals = []
    for _ in range(iters):
        t0 = perf_counter_ns()
        model.forward(inputs, mode="eval", observe=record)
        totals.append(perf_counter_ns() - t0)

    layers = [
        LayerTiming(n.name, n.layer.kind,
                    float(np.mean(per_node[n.name])), float(np.std(per_node[n.name])))
        for n in model.order
    ]
    per_kind: dict[str, list[float]] = {}
    for t in layers:
        per_kind.setdefault(t.kind, []).append(t.mean_ns)
    return LatencyReport(
        layers=layers,
        end_to_end_mean_ns=float(np.mean(totals)),
        end_to_end_std_ns=float(np.std(totals)),
        end_to_end_p10_ns=float(np.percentile(totals, 10)),
        end_to_end_median_ns=float(np.median(totals)),
        end_to_end_p90_ns=float(np.percentile(totals, 90)),
        warmup=warmup,
        iters=iters,
        hardware=hardware_description(),
        per_kind_mean_ns={k: float(np.mean(v)) for k, v in per_kind.items()},
    )


def write_latency_report(report: LatencyReport, text_path, table_path) -> None:
    with open(text_path, "w") as fh:
        fh.write(report.to_text())
    with open(table_path, "w") as fh:
        fh.write("node\tkind\tmean_ns\tstd_ns\n")
        for t in report.layers:
            fh.write(f"{t.name}\t{t.kind}\t{t.mean_ns:.1f}\t{t.std_ns:.1f}\n")
        fh.write(f"end_to_end\t-\t{report.end_to_end_mean_ns:.1f}\t"
                 f"{report.end_to_end_std_ns:.1f}\n")
