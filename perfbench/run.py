"""conedrive benchmark: one command, three workloads, plain or traced.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The plain run (``--trace 0``) sets the workload up several times,
then runs it for ``--seconds`` and reports the end-to-end metrics listed in
``BENCHMARK.json``. The traced run (``--trace 1``) alternates traced and
untraced units for ``--seconds`` and reports the per-layer metrics plus the
tracing overhead. Every result line names each metric with its unit; the last
line of standard output is one JSON object. Spans and the full result,
environment and figures not listed in ``BENCHMARK.json`` included, are
written under ``.perfbench/``.
"""
import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3              # set-ups per plain run; setup_s is their median
OUT_DIR = os.path.join(ROOT, ".perfbench")


def import_program():
    """Import conedrive from this checkout's ``src/``, nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "conedrive", "__init__.py")):
        raise ImportError(f"no conedrive package under {src}")
    sys.path.insert(0, src)
    import conedrive
    if not os.path.abspath(conedrive.__file__).startswith(src + os.sep):
        raise ImportError(f"conedrive imported from {conedrive.__file__}, not {src}")


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def latencies_ms(units) -> np.ndarray:
    """Op latencies of ``units``, in ms."""
    return np.array([t for u in units for t in u.latencies_ns], dtype=np.float64) / 1e6


def run_units(workload, seconds: float, tracer=None):
    """Run units until the next one would overrun ``seconds``.

    With a tracer, plain and traced units alternate, plain first, and both
    kinds run at least once. Returns (plain units, traced units).
    """
    plain, traced = [], []
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        unit = workload.run_unit(tracer if use_tracer else None)
        (traced if use_tracer else plain).append(unit)
        now = perf_counter_ns()
        count = len(plain) + len(traced)
        if now + (now - start) // count > deadline and (traced or tracer is None):
            return plain, traced


def plain_run(make, seed: int, seconds: float, work: str):
    """End-to-end metrics of the workload built by ``make()``."""
    setups, workload = [], None
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        workload = make()
        t0 = perf_counter()
        workload.setup(seed, work)
        setups.append(perf_counter() - t0)
    units, _ = run_units(workload, seconds)
    latencies = latencies_ms(units)
    metrics = {
        "setup_s": sorted(setups)[len(setups) // 2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_mean_ms": float(latencies.mean()),
        "frames_per_s": sum(u.frames for u in units)
        / (sum(u.elapsed_ns for u in units) / 1e9),
    }
    # not in BENCHMARK.json, so only in the result file: on a shared host
    # their worst spread between runs is wider than the mean's
    for q in (10, 50, 95, 99):
        metrics[f"op_p{q}_ms"] = float(np.percentile(latencies, q))
    return metrics, units, None


def traced_run(make, seed: int, seconds: float, work: str):
    """Per-layer metrics and tracing overhead of the workload built by ``make()``."""
    from report import summarize
    from tracer import Tracer
    os.makedirs(work)
    tracer = Tracer()
    workload = make()
    workload.setup(seed, work, tracer)
    setup_spans = len(tracer.names)
    plain, traced = run_units(workload, seconds, tracer)
    metrics = summarize(tracer, traced, workload.synth_frames, setup_spans)
    untraced = float(np.median(latencies_ms(plain)))
    metrics["trace.overhead_ms"] = float(np.median(latencies_ms(traced))) - untraced
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_ms"] / untraced
    return metrics, plain + traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        import_program()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    from envinfo import environment
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    run = traced_run if args.trace else plain_run
    try:
        measured, units, tracer = run(WORKLOADS[args.workload], args.seed,
                                      args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = definition["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    attempted = sum(len(u.ops) for u in units)
    failed = sum(u.failed for u in units)
    env = environment(args.seed, BLAS_THREADS)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    unlisted = {k: v for k, v in sorted(measured.items()) if k not in metrics}

    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.tsv"))
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, env=env, unlisted=unlisted),
                  fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops attempted {attempted}  failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
