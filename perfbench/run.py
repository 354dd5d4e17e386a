"""chebgreen benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {export,solve,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A report with the environment stamp and every operation goes to
perfbench/out/.
"""

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pinned before numpy loads, here and (inherited) in every child: with
# default threads the n=256 stripped solve ranges over 3-172 ms per sample.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# latency_tail_ms goes to the info line only: across seeds it spread by
# 9-34 % (IQR over median), too much for a bounded metric on this hardware
END_TO_END = {
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.format_ms": "ms/op",
    "cli.write_ms": "ms/op",
    "cli.bytes_out": "bytes/op",
    "cli.checks_self_ms": "ms/op",
    "green.green_matrix_ms": "ms/op",
    "green.green_matrix_calls": "calls/op",
    "green.assembly_self_ms": "ms/op",
    "green.matrix_free_self_ms": "ms/op",
    "green.dense_apply_ms": "ms/op",
    "calculus.lagrange_primitive_ms": "ms/op",
    "calculus.lagrange_primitive_calls": "calls/op",
    "calculus.antiderivative_ms": "ms/op",
    "core.dct1_ms": "ms/op",
    "core.dct1_calls": "calls/op",
    "core.dct1_points": "points/op",
    "operators.diff_matrix_ms": "ms/op",
    "operators.diff2_self_ms": "ms/op",
    "operators.diff2_calls": "calls/op",
    "operators.solve_stripped_self_ms": "ms/op",
    "operators.extension_matrix_ms": "ms/op",
    "operators.reinterp_matrix_ms": "ms/op",
    "operators.checks_self_ms": "ms/op",
    "operators.matmul_gflop": "GFLOP/op",
    "quadrature.gram_ms": "ms/op",
    "quadrature.cc_weights_ms": "ms/op",
    "quadrature.symmetry_self_ms": "ms/op",
    "cli.errors": "count",
    "green.errors": "count",
    "calculus.errors": "count",
    "core.errors": "count",
    "operators.errors": "count",
    "quadrature.errors": "count",
    "trace.latency_ms": "ms/op",
    "trace.residual_ms": "ms/op",
    "trace.overhead_ms": "ms/op",
}
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {0}; "
                "print(time.perf_counter() - t)")


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no such
    percentile exists and the maximum is returned as the 100th.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def git_state():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git": git_state(),
    }


def measure(wl, rng, seconds, trace):
    """The whole rounds that take `seconds` at the nominal round time.

    In a traced run every operation runs twice in a row, untraced and
    traced, the order alternating, so the two halves see the same mix and
    their paired difference is the tracing overhead.
    """
    ops = []
    for _ in range(max(1, round(seconds / wl.ROUND_S))):
        for config in wl.round(rng):
            modes = (False, True)[::-1 if len(ops) % 4 else 1] if trace else (False,)
            for traced in modes:
                ops.append(wl.run(config, traced))
    return ops


def median_probe(args, repeats, parse):
    from workloads import TMP, run_child

    values = []
    for _ in range(repeats):
        code, elapsed, _ = run_child(args, TMP / "probe.out")
        if code != 0:
            raise RuntimeError(f"probe {args} exited {code}")
        values.append(parse(elapsed, (TMP / "probe.out").read_text()))
    return statistics.median(values)


def end_to_end(wl, ops):
    lat = [op.latency_s * 1e3 for op in ops]
    value, pct = tail(lat)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(op.rss_kb for op in ops)
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "ops_per_s": len(ops) / sum(op.latency_s for op in ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, {"latency_tail_ms": value, "tail_percentile": pct,
                     "latency_samples": len(lat)}


def traced_layers(wl, ops):
    import numpy as np
    from tracer import SELF_METRICS, layer_metrics, self_times, summarize

    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    if wl.in_process:
        spans = wl.tracer.array()
        spans = np.column_stack([spans, self_times(spans)])
    else:
        spans = np.concatenate([op.spans for op in traced])
    metrics = layer_metrics(summarize(spans), len(traced))
    traced_ms = statistics.fmean(op.latency_s for op in traced) * 1e3
    plain_ms = statistics.fmean(op.latency_s for op in plain) * 1e3
    self_sum = sum(metrics[k] for k in SELF_METRICS)
    metrics["trace.latency_ms"] = traced_ms
    metrics["trace.residual_ms"] = traced_ms - self_sum
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    return metrics, spans


def run(workload, seed, seconds, trace):
    import numpy as np
    import tracer
    import workloads

    workloads.TMP.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    wl = workloads.WORKLOADS[workload]()
    if wl.in_process:
        wl.generate(rng)
    extra = {}
    if trace:
        t_numpy, t_cli = (
            median_probe(["-c", IMPORT_PROBE.format(mod)], IMPORT_REPEATS,
                         lambda _, out: float(out))
            for mod in ("numpy", "chebgreen.cli"))
        extra["cli.import_ms"] = (t_cli - t_numpy) * 1e3
    else:
        extra["setup_s"] = median_probe(wl.setup_probe(), SETUP_REPEATS,
                                        lambda elapsed, _: elapsed)
    wl.warm_up()
    ops = measure(wl, rng, seconds, trace)
    verdicts = collections.Counter(op.verdict for op in ops)
    failed = len(ops) - verdicts.get(workloads.OK, 0)
    unexpected = failed - verdicts.get(workloads.KNOWN_DEFECT, 0)
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "verdicts": verdicts, "fail_ratio": failed / len(ops),
            "repeat_share": wl.REPEAT_SHARE}
    if trace:
        metrics, spans = traced_layers(wl, ops)
        metrics.update(extra)
        np.savez_compressed(workloads.WORK / f"spans-{workload}-seed{seed}.npz",
                            spans=spans, names=np.array(tracer.NAMES))
        units = PER_LAYER
    else:
        metrics, stats = end_to_end(wl, ops)
        metrics.update(extra)
        info.update(stats)
        units = END_TO_END
    result = {
        "correct": unexpected == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    env = environment()
    report = {"env": env, "info": info, "result": result,
              "ops": [op.record() for op in ops]}
    report_path = workloads.WORK / f"{workload}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for k, m in result["metrics"].items():
        print(f"{k:36s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("export", "solve", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="quick check of the harness itself, then exit")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "chebgreen" / "__init__.py").is_file():
        print(f"error: no chebgreen package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import chebgreen

    if Path(chebgreen.__file__).resolve().parent != (SRC / "chebgreen").resolve():
        print(f"error: imported chebgreen from {chebgreen.__file__}", file=sys.stderr)
        return 2
    if args.self_check:
        from selfcheck import self_check

        return self_check()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
