"""Benchmark for bowl: fit-cli, reproduce-small and predict-bulk.

    python3 perfbench/run.py --workload fit-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics of the named workload. With `--trace 1` it holds the
per-layer metrics of a traced `--jobs 1` run, which covers every workload
and splits `--seconds` between them. The full record, with the environment
and the per-operation samples, goes to `perfbench/out/`. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("fit-cli", "reproduce-small", "predict-bulk")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
GIBBS_SPANS = (
    "gibbs.build_suffstats", "gibbs.draw_gamma_and_beta_ss", "gibbs.run_chain",
    "gibbs.draw_lambda", "gibbs.draw_beta_normal", "gibbs.draw_beta_ep", "gibbs.draw_omega",
    "distributions.MvnParams", "distributions.sample_mvn",
)
# The traced run reports <workload>.<span>.self_s for the spans each workload
# calls. A span a workload never calls would read 0 on every run, so it is
# left out for that workload.
TRACED_SPANS = {
    "fit-cli": GIBBS_SPANS + (
        "cli.cmd_fit", "pseudo_model.load_dataset_csv", "diagnostics.effective_sample_size",
        "diagnostics.split_rhat", "prediction.coefficient_magnitudes"),
    "reproduce-small": GIBBS_SPANS + (
        "owl.fit_owl_linear", "simulate.generate_scenario_raw", "simulate.classify_with_method",
        "simulate.uncertainty_study", "simulate.run_experiment", "prediction.recommend",
        "prediction.certainty_grid", "prediction.coefficient_magnitudes", "cli.cmd_reproduce"),
    "predict-bulk": ("prediction.recommend", "prediction.certainty_grid", "cli.cmd_predict"),
}
CALL_COUNTS = {
    "reproduce-small": ("owl.fit_owl_linear", "prediction.recommend"),
    "predict-bulk": ("prediction.recommend",),
}


def pin_blas_threads() -> None:
    """One BLAS thread unless the caller set another count, so that a run
    keeps to one core and leaves the other to the rest of the host."""
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")


def import_program(root: Path = ROOT) -> None:
    """Put the checkout's `src/` first on sys.path; fail if it has no bowl package."""
    src = root / "src"
    if not (src / "bowl" / "__init__.py").is_file():
        raise SystemExit(f"error: no bowl package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import bowl

    if Path(bowl.__file__).resolve().parent != (src / "bowl").resolve():
        raise SystemExit(f"error: imported bowl from {bowl.__file__}, not from {src}")


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its finished children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_passes(workload, state, seconds: float, tracer=None, min_passes: int = 2):
    """Closed loop of passes; each starts only if it should end within the budget.

    With a tracer, passes alternate untraced and traced. Returns a list of
    (traced, ops) per pass.
    """
    passes = []
    t0 = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - t0 + last <= seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        start = time.perf_counter()
        if traced:
            with tracer.installed():
                ops = workload.run_pass(state)
        else:
            ops = workload.run_pass(state)
        last = time.perf_counter() - start
        passes.append((traced, ops))
    return passes


def kind_medians(passes, adjust: bool = False) -> dict[str, tuple[float, float]]:
    """Per operation kind: (median seconds, median work units) over the passes.

    With `adjust`, the seconds are rescaled to the reference host speed
    (see bench_calibrate).
    """
    by_kind: dict[str, list] = {}
    for _, ops in passes:
        for op in ops:
            by_kind.setdefault(op.kind, []).append(op)
    return {kind: (statistics.median(op.adjusted_seconds if adjust else op.seconds
                                     for op in ops),
                   statistics.median(op.units for op in ops))
            for kind, ops in by_kind.items()}


def op_figures(passes) -> dict:
    """Median raw seconds per operation kind, replications and query rows per second,
    and the median time of the reference loop."""
    medians = kind_medians(passes)
    figures = {f"{kind}_s": s for kind, (s, _) in medians.items()}
    if "reproduce" in medians:
        figures["reps_per_s"] = medians["reproduce"][1] / medians["reproduce"][0]
    if "predict_query" in medians:
        figures["predict_rows_per_s"] = medians["predict_query"][1] / medians["predict_query"][0]
    figures["reference_loop_s"] = statistics.median(
        op.ref_seconds for _, ops in passes for op in ops)
    return figures


def end_to_end(passes, setup_times) -> dict:
    """One pass is one operation of each kind; its time is the sum of the kinds' medians.

    Every time is rescaled to the reference host speed; `setup_times` holds
    the set-ups' adjusted seconds.
    """
    ops = [op for _, pass_ops in passes for op in pass_ops]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    medians = kind_medians(passes, adjust=True)
    rated = [(s, u) for s, u in medians.values() if u > 0]
    rate = sum(u for _, u in rated) / sum(s for s, _ in rated) if rated else 0.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (sum(s for s, _ in medians.values()), "s"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ops_ratio": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(workload: str, passes, tracer) -> dict:
    """Per-layer metrics of one workload, per traced pass, named <workload>.<metric>."""
    traced = [sum(op.seconds for op in ops) for t, ops in passes if t]
    untraced = [sum(op.seconds for op in ops) for t, ops in passes if not t]
    n = len(traced)
    selfs = tracer.self_times()
    metrics = {}
    for name in TRACED_SPANS[workload]:
        metrics[f"{name}.self_s"] = (selfs.get(name, (0, 0.0))[1] / n, "s")
    for name in CALL_COUNTS.get(workload, ()):
        metrics[f"{name}.calls"] = (selfs.get(name, (0, 0.0))[0] / n, "count")
    if "gibbs.run_chain" in TRACED_SPANS[workload]:
        counts = tracer.counts
        ss_sweeps = max(selfs.get("gibbs.draw_gamma_and_beta_ss", (0, 0.0))[0], 1)
        metrics["gibbs.sweeps"] = (counts["gibbs.sweeps"] / n, "count")
        metrics["gibbs.ss_flips_per_sweep"] = (counts["gibbs.ss_flips"] / ss_sweeps, "count")
        metrics["gibbs.ss_active_mean"] = (counts["gibbs.ss_active"] / ss_sweeps, "count")
        metrics["gibbs.omega_zero_beta"] = (counts["gibbs.omega_zero_beta"] / n, "count")
        metrics["distributions.chi_degenerate"] = (
            counts["distributions.chi_degenerate"] / n, "count")
        kernel_s = sum(t for name, (_, t) in selfs.items()
                       if name.startswith(("gibbs.", "distributions.")))
        metrics["trace.gibbs_s"] = (kernel_s / n, "s")
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.span_coverage"] = (tracer.root_seconds() / sum(traced), "ratio")
    return {f"{workload}.{k}": v for k, v in metrics.items()}


def layer_table(tracer, passes: int) -> list[str]:
    selfs = tracer.self_times()
    total = sum(t for _, t in selfs.values())
    lines = [f"{'span':40s} {'calls/pass':>12s} {'self s/pass':>12s} {'share':>7s}"]
    for name, (calls, t) in sorted(selfs.items(), key=lambda kv: -kv[1][1]):
        if calls:
            lines.append(f"{name:40s} {calls / passes:12.1f} {t / passes:12.5f} {t / total:7.1%}")
    return lines


def summarize(passes) -> dict:
    ops = [op for _, pass_ops in passes for op in pass_ops]
    return {
        "figures": op_figures(passes),
        "passes": [{"traced": t, "ops": [[op.kind, op.seconds, op.ref_seconds] for op in o]}
                   for t, o in passes],
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "failures": [msg for op in ops for msg in op.failures],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None,
        work_root: Path | None = None, out_dir: Path | None = None) -> dict:
    """Run one workload, or with `trace` the traced run of all of them; return the record."""
    import bench_workloads
    from bench_calibrate import adjusted, reference_loop
    from bench_trace import Tracer, write_spans

    sizes = sizes or bench_workloads.FULL
    work_root = work_root or BENCH_DIR / ".work"
    out_dir = out_dir or BENCH_DIR / "out"
    work = work_root / f"{workload_name}-{seed}-{os.getpid()}"
    record = {"env": environment(workload_name, seed, seconds, trace),
              "sizes": dataclasses.asdict(sizes), "workloads": {}}
    metrics = {}
    try:
        if trace:
            tracers = []
            for name, cls in bench_workloads.WORKLOADS.items():
                workload = cls(sizes)
                state = workload.set_up(work / name / "setup-0", seed)
                tracer = Tracer(name)
                passes = run_passes(workload, state, seconds / len(bench_workloads.WORKLOADS),
                                    tracer=tracer)
                metrics.update(per_layer(name, passes, tracer))
                tracers.append(tracer)
                record["workloads"][name] = summarize(passes)
                record["workloads"][name]["layer_table"] = layer_table(
                    tracer, sum(1 for t, _ in passes if t))
            trace_file = out_dir / f"trace-seed{seed}.csv"
            write_spans(trace_file, tracers)
            record["trace_file"] = trace_file.name
        else:
            workload = bench_workloads.WORKLOADS[workload_name](sizes)
            setup_times, setup_refs = [], []
            for i in range(sizes.setup_repeats):
                ref = reference_loop()
                t0 = time.perf_counter()
                state = workload.set_up(work / workload_name / f"setup-{i}", seed)
                setup_times.append(time.perf_counter() - t0)
                setup_refs.append(0.5 * (ref + reference_loop()))
            passes = run_passes(workload, state, seconds)
            metrics = end_to_end(passes, list(map(adjusted, setup_times, setup_refs)))
            record["workloads"][workload_name] = summarize(passes)
            record["setup_samples_s"] = setup_times
            record["setup_ref_s"] = setup_refs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    parts = record["workloads"].values()
    failed = sum(p["failed"] for p in parts)
    record["result"] = {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    result_file = out_dir / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    import_program()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    env = record["env"]
    print(f"# environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads_env={env['blas_threads_env']} seed={env['seed']}")
    metrics = record["result"]["metrics"]
    for workload, part in record["workloads"].items():
        for line in part.get("layer_table", []):
            print(f"# {workload} {line}")
        if args.trace:
            overhead = metrics[f"{workload}.trace.overhead_ratio"]["value"]
            print(f"# {workload} tracing overhead: {overhead:+.1%} of an untraced --jobs 1 pass")
        for name, value in part["figures"].items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            print(f"# {workload} figure {name} = {value:.6g} {unit}")
        for msg in part["failures"]:
            print(f"check failed: {workload}: {msg}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
