"""Quick check of the harness itself: ``python3 perfbench/run.py --self-check``.

Runs each workload's operation and output check at small or single sizes,
traced and untraced, and checks the helpers (tail rule, strict JSON, the
verify classifier, span self-time accounting) on inputs with known
answers.  Takes a few seconds; exits 0 when everything holds.
"""

import json
import math
from pathlib import Path

import numpy as np
from chebgreen import core, green

import run
import tracer
import workloads


def expect(cond, what):
    if not cond:
        raise RuntimeError(f"self-check failed: {what}")


def check_helpers():
    value, pct = run.tail(range(1, 31))
    expect((value, pct) == (20, 100.0 * 20 / 30), f"tail of 1..30 gave {value}, {pct}")
    expect(run.tail([3.0, 1.0]) == (3.0, 100.0), "tail of two samples is their maximum")
    try:
        workloads.strict_json('[{"deviation": NaN}]')
        expect(False, "strict_json accepted a bare NaN")
    except ValueError:
        pass

    def verify_text(dev_bc):
        rows = [{"check": c, "n": 1024, "deviation": 0.0, "tolerance": 1.0}
                for c in sorted(workloads.VerifyWorkload.CHECKS)]
        for r in rows:
            if r["check"] == "bc-inverse":
                r["deviation"] = dev_bc
        return json.dumps(rows)

    classify = workloads.VerifyWorkload.check
    expect(classify(1024, 0, verify_text(0.5)) == workloads.OK, "clean verify output")
    expect(classify(1024, 1, verify_text(math.nan)) == workloads.KNOWN_DEFECT,
           "bc-inverse NaN at n=1024 is the known defect")
    expect(classify(512, 1, verify_text(math.nan).replace("1024", "512"))
           not in (workloads.OK, workloads.KNOWN_DEFECT), "NaN below n=864 is unexpected")
    expect(classify(1024, 1, verify_text(2.0)) not in (workloads.OK, workloads.KNOWN_DEFECT),
           "a finite out-of-tolerance deviation is unexpected")


def check_tracer():
    t = tracer.Tracer()
    inner = t.wrap("core.dct1", lambda v: sum(v))
    outer = t.wrap("calculus._lagrange_primitive_values", lambda i, n: inner([i, n]) + inner([n]))
    outer(1, 2)
    spans = t.array()
    self_s = tracer.self_times(spans)
    root = spans[spans[:, 1] < 0]
    expect(len(spans) == 3 and len(root) == 1, "three spans, one root")
    expect(abs(self_s.sum() - (root[0, 4] - root[0, 3])) < 1e-9,
           "self times add up to the root span")
    expect(spans[:, 6].sum() == 3.0, "dct1 work counts input lengths")


def check_workloads():
    workloads.TMP.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    export = workloads.ExportWorkload()
    for config in ((16, "csv", True), (16, "json", False), (16, "csv", True)):
        for traced in (False, True):
            op = export.run(config, traced)
            expect(op.verdict == workloads.OK, f"export {config}: {op.verdict}")
    summary = tracer.summarize(op.spans)
    expect(summary["green.green_matrix"]["calls"] == 1, "one green_matrix per export")
    expect(summary["calculus._lagrange_primitive_values"]["calls"] == 16 // 2 + 1,
           "N/2+1 Lagrange primitives per build")

    verify = workloads.VerifyWorkload()
    op = verify.run((16,), True)
    expect(op.verdict == workloads.OK, f"verify n=16: {op.verdict}")
    summary = tracer.summarize(op.spans)
    expect(summary["quadrature.verify_d2_symmetry"]["calls"] == 1, "symmetry check traced")
    expect(summary["green.green_matrix"]["calls"] == 4, "four green_matrix builds per verify")

    solve = workloads.SolveWorkload()
    solve.generate(rng)
    solve.warm_up()
    for config in solve.round(rng):
        for traced in (False, True):
            op = solve.run(config, traced)
            expect(op.verdict == workloads.OK, f"solve {config}: {op.verdict}")
    expect(len(solve.tracer.rows) > 0, "solve spans recorded")
    expect(not any(hasattr(f, "__wrapped__") for f in (core.dct1, green.green_matrix)),
           "wrappers removed after a traced op")


def check_benchmark_json():
    path = Path(run.ROOT) / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} matches the harness")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names the harness's workloads")


def self_check():
    check_helpers()
    check_tracer()
    check_workloads()
    check_benchmark_json()
    print("self-check passed")
    return 0
