"""In-memory spans around the calls into each chebgreen module.

Wrappers are installed from outside the package: each one replaces a
function in the namespace that *calls* it (``chebgreen.core.dct1`` also
catches the calls made by ``_node_to_coeff_values``), so nothing under
``src/`` changes.  Spans stay in a Python list until the run ends; the
per-layer metrics are derived from them afterwards.

A span row is ``(span_id, parent_id, name_id, start, end, error, work)``.
``work`` carries a per-span quantity computed from the arguments: input
length for ``dct1``, characters written for ``_write_text``, and
computed matrix-product flops for the spans that multiply dense matrices.
"""

import functools
import importlib
import time

import numpy as np

LAYERS = ("cli", "green", "calculus", "core", "operators", "quadrature")


def _flops_right_inverse(n):
    # R_down (n-1)x(n+1) @ D2, then @ G (both (n+1)^2), then @ R_up (n+1)x(n-1)
    return 4.0 * (n - 1) * (n + 1) ** 2 + 2.0 * (n - 1) ** 2 * (n + 1)


def _flops_symmetry(n):
    # D2 @ B and S @ (.) with B (n+1)x(n-1), then B.T @ (.)
    return 4.0 * (n + 1) ** 2 * (n - 1) + 2.0 * (n - 1) ** 2 * (n + 1)


def _flops_solve_bvp(args):
    f, method = args[0], args[1]
    return 2.0 * (f.grid_degree + 1) ** 2 if method == "dense-green" else 0.0


# span name -> work(args) or None.  The name is "<layer>.<function>"; the
# layer is the module that defines the function.
SPANS = {
    "cli._cmd_green": None,
    "cli._cmd_verify": None,
    "cli._write_text": lambda a: float(len(a[0])),
    "cli._dev_oracle": None,
    "cli._dev_centrosymmetry": None,
    "cli._dev_cc_weights": None,
    "cli._dev_bc_inverse": lambda a: 4.0 * (a[0] + 1) ** 3,
    "green.green_matrix": None,
    "green.apply_green_matrix_free": None,
    "green.solve_bvp": _flops_solve_bvp,
    "calculus._lagrange_primitive_values": None,
    "calculus._antiderivative_raw": None,
    "core.dct1": lambda a: float(len(a[0])),
    "operators.diff_matrix": None,
    "operators.diff2_matrix": lambda a: 2.0 * (a[0] + 1) ** 3,
    "operators.solve_stripped": None,
    "operators.extension_matrix": None,
    "operators.reinterp_matrix": None,
    "operators.diff2_bc_matrix": None,
    "operators.green_bc_matrix": lambda a: 2.0 * (a[0] + 1) ** 2 * (a[0] - 1),
    "operators.verify_left_inverse": lambda a: 2.0 * (a[0] + 1) ** 3,
    "operators.verify_right_inverse": lambda a: _flops_right_inverse(a[0]),
    "quadrature.consistent_gram_matrix": lambda a: 2.0 * (a[0] + 1) ** 2 * (2 * a[0] + 1),
    "quadrature.cc_weights": None,
    "quadrature.verify_d2_symmetry": lambda a: _flops_symmetry(a[0]),
}
NAMES = tuple(SPANS)
_FLOP_SPANS = tuple(name for name, work in SPANS.items()
                    if work is not None and name not in ("cli._write_text", "core.dct1"))

# calling module -> {attribute: span name}.  Where a module imported a
# function from another, the wrapper goes into the importer's namespace.
SITES = {
    "cli": {
        "_cmd_green": "cli._cmd_green",
        "_cmd_verify": "cli._cmd_verify",
        "_write_text": "cli._write_text",
        "green_matrix": "green.green_matrix",
        "diff2_bc_matrix": "operators.diff2_bc_matrix",
        "green_bc_matrix": "operators.green_bc_matrix",
        "cc_weights": "quadrature.cc_weights",
    },
    "green": {
        "green_matrix": "green.green_matrix",
        "apply_green_matrix_free": "green.apply_green_matrix_free",
        "_lagrange_primitive_values": "calculus._lagrange_primitive_values",
        "_antiderivative_raw": "calculus._antiderivative_raw",
    },
    "calculus": {"_antiderivative_raw": "calculus._antiderivative_raw"},
    "core": {"dct1": "core.dct1"},
    "operators": {
        "green_matrix": "green.green_matrix",
        "diff_matrix": "operators.diff_matrix",
        "diff2_matrix": "operators.diff2_matrix",
        "solve_stripped": "operators.solve_stripped",
        "extension_matrix": "operators.extension_matrix",
        "reinterp_matrix": "operators.reinterp_matrix",
    },
    "quadrature": {
        "diff2_matrix": "operators.diff2_matrix",
        "reinterp_matrix": "operators.reinterp_matrix",
        "cc_weights": "quadrature.cc_weights",
        "consistent_gram_matrix": "quadrature.consistent_gram_matrix",
    },
}

# cli._CHECKS holds direct references to the deviation functions
CHECK_SPANS = {
    "oracle": "cli._dev_oracle",
    "centrosymmetry": "cli._dev_centrosymmetry",
    "cc-weights": "cli._dev_cc_weights",
    "bc-inverse": "cli._dev_bc_inverse",
    "left-inverse": "operators.verify_left_inverse",
    "right-inverse": "operators.verify_right_inverse",
    "symmetry": "quadrature.verify_d2_symmetry",
}


class Tracer:
    """Collects span rows; ``install`` / ``uninstall`` patch the package."""

    def __init__(self):
        self.rows = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        name_id = NAMES.index(name)
        work_of = SPANS[name]
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            err = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
                err = 0
                return out
            finally:
                end = clock()
                stack.pop()
                work = work_of(args) if work_of is not None else 0.0
                rows[span_id] = (span_id, parent, name_id, start, end, err, work)

        return traced

    def install(self):
        """Patch every site in SITES and the entries of cli._CHECKS."""
        for mod_name, attrs in SITES.items():
            mod = importlib.import_module(f"chebgreen.{mod_name}")
            for attr, span in attrs.items():
                orig = getattr(mod, attr)
                self._patched.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(span, orig))
        cli = importlib.import_module("chebgreen.cli")
        checks = dict(cli._CHECKS)
        self._patched.append((cli, "_CHECKS", checks))
        cli._CHECKS = {
            name: (lo, hi, self.wrap(CHECK_SPANS[name], dev), tol)
            for name, (lo, hi, dev, tol) in checks.items()
        }

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def array(self):
        """Span rows as a float64 array of shape (spans, 7)."""
        if not self.rows:
            return np.zeros((0, 7))
        return np.array(self.rows, dtype=np.float64)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    ``spans`` is an array of rows whose span ids index the array itself
    (one process's rows, in recording order).
    """
    dur = spans[:, 4] - spans[:, 3]
    parent = spans[:, 1].astype(np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    return dur - child


def summarize(spans):
    """Totals per span name over concatenated per-process span arrays.

    ``spans`` holds rows with their ``self`` time appended as column 7.
    Returns {name: dict(self_s, total_s, calls, errors, work)}.
    """
    out = {}
    name_ids = spans[:, 2].astype(np.int64)
    for i, name in enumerate(NAMES):
        sel = spans[name_ids == i]
        out[name] = {
            "self_s": float(sel[:, 7].sum()),
            "total_s": float((sel[:, 4] - sel[:, 3]).sum()),
            "calls": int(len(sel)),
            "errors": int(sel[:, 5].sum()),
            "work": float(sel[:, 6].sum()),
        }
    return out


# per-layer metric -> (unit, how it is derived from the span summary).
# Times are self times except green.green_matrix_ms, which is inclusive;
# the self-time metrics partition the traced in-process time.
SELF_METRICS = {
    "cli.format_ms": ("cli._cmd_green", "cli._cmd_verify"),
    "cli.write_ms": ("cli._write_text",),
    "cli.checks_self_ms": ("cli._dev_oracle", "cli._dev_centrosymmetry",
                           "cli._dev_cc_weights", "cli._dev_bc_inverse"),
    "green.assembly_self_ms": ("green.green_matrix",),
    "green.matrix_free_self_ms": ("green.apply_green_matrix_free",),
    "green.dense_apply_ms": ("green.solve_bvp",),
    "calculus.lagrange_primitive_ms": ("calculus._lagrange_primitive_values",),
    "calculus.antiderivative_ms": ("calculus._antiderivative_raw",),
    "core.dct1_ms": ("core.dct1",),
    "operators.diff_matrix_ms": ("operators.diff_matrix",),
    "operators.diff2_self_ms": ("operators.diff2_matrix",),
    "operators.solve_stripped_self_ms": ("operators.solve_stripped",),
    "operators.extension_matrix_ms": ("operators.extension_matrix",),
    "operators.reinterp_matrix_ms": ("operators.reinterp_matrix",),
    "operators.checks_self_ms": ("operators.verify_left_inverse",
                                 "operators.verify_right_inverse",
                                 "operators.green_bc_matrix",
                                 "operators.diff2_bc_matrix"),
    "quadrature.gram_ms": ("quadrature.consistent_gram_matrix",),
    "quadrature.cc_weights_ms": ("quadrature.cc_weights",),
    "quadrature.symmetry_self_ms": ("quadrature.verify_d2_symmetry",),
}
assert sorted(n for names in SELF_METRICS.values() for n in names) == sorted(NAMES)


def layer_metrics(summary, ops):
    """Per-op means of the per-layer metrics from a span summary over `ops` ops."""
    m = {name: sum(summary[s]["self_s"] for s in spans) * 1e3 / ops
         for name, spans in SELF_METRICS.items()}
    m["cli.bytes_out"] = summary["cli._write_text"]["work"] / ops
    m["green.green_matrix_ms"] = summary["green.green_matrix"]["total_s"] * 1e3 / ops
    m["green.green_matrix_calls"] = summary["green.green_matrix"]["calls"] / ops
    m["calculus.lagrange_primitive_calls"] = (
        summary["calculus._lagrange_primitive_values"]["calls"] / ops)
    m["core.dct1_calls"] = summary["core.dct1"]["calls"] / ops
    m["core.dct1_points"] = summary["core.dct1"]["work"] / ops
    m["operators.diff2_calls"] = summary["operators.diff2_matrix"]["calls"] / ops
    m["operators.matmul_gflop"] = sum(summary[s]["work"] for s in _FLOP_SPANS) / 1e9 / ops
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(sum(v["errors"] for k, v in summary.items()
                                         if k.startswith(layer + ".")))
    return m
