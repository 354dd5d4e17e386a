"""End-to-end checks of the command-line interface."""

import json
import tracemalloc

import numpy as np
import pytest

from chebgreen import (METHODS, GreenMatrix, NodeVector, cgl_points, diff2_bc_matrix,
                       green_bc_matrix, green_matrix, solve_bvp)
from chebgreen import cli, operators
from chebgreen.cli import _format_rows, main


def _parse_csv_matrix(text):
    return np.array(
        [[float(tok) for tok in line.split(",")] for line in text.strip().splitlines()]
    )


# Reference serializers: the per-float formulas the CLI output must match byte for byte.

def _reference_csv(M):
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in M) + "\n"


def _reference_json(n, ordering, M):
    payload = {"degree": n, "ordering": ordering, "entries": M.tolist()}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# green


def test_green_csv_round_trips_bit_exactly(capsys):
    assert main(["green", "--n", "7"]) == 0
    out = capsys.readouterr().out
    np.testing.assert_array_equal(_parse_csv_matrix(out), green_matrix(7).entries)


def test_green_csv_known_entry(capsys):
    assert main(["green", "--n", "3"]) == 0
    M = _parse_csv_matrix(capsys.readouterr().out)
    assert M[1][1] == -0.25


def test_green_csv_file_output_matches_stdout(tmp_path, capsys):
    target = tmp_path / "g.csv"
    assert main(["green", "--n", "5", "--out", str(target)]) == 0
    assert main(["green", "--n", "5"]) == 0
    assert target.read_text() == capsys.readouterr().out
    assert "\r" not in target.read_text()


def test_green_json_payload(capsys):
    assert main(["green", "--n", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 4
    assert doc["ordering"] == "descending"
    np.testing.assert_array_equal(np.array(doc["entries"]), green_matrix(4).entries)


def test_green_ascending_flag_reverses_both_axes(capsys):
    assert main(["green", "--n", "4", "--format", "json", "--ascending"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ordering"] == "ascending"
    G = green_matrix(4).entries
    np.testing.assert_array_equal(np.array(doc["entries"]), G[::-1, ::-1])


@pytest.mark.parametrize("ascending", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", list(range(1, 13)) + [63, 64])
def test_green_output_is_byte_identical_to_reference(n, fmt, ascending, tmp_path, capsys):
    G = green_matrix(n).entries
    if ascending:
        G = G[::-1, ::-1]
    if fmt == "csv":
        expected = _reference_csv(G)
    else:
        expected = _reference_json(n, "ascending" if ascending else "descending", G)
    argv = ["green", "--n", str(n), "--format", fmt] + (["--ascending"] if ascending else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    target = tmp_path / f"g.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (7, 5), (8, 8)])
def test_format_rows_matches_reference_on_random_matrices(shape):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    M[0, 0] = -0.0
    C = M + M[::-1, ::-1]  # centrosymmetric: formatted through the mirrored half
    assert np.array_equal(C, C[::-1, ::-1]) and not np.array_equal(M, M[::-1, ::-1])
    for A in (M, C):
        assert "\n".join(_format_rows(A, "%.17g", ",")) + "\n" == _reference_csv(A)
        rows = [json.dumps(row, indent=2) for row in A.tolist()]
        assert _format_rows(A, "%r", ",\n  ") == [r[4:-2] for r in rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_green_non_finite_matrix_fails_cleanly(fmt, monkeypatch, capsys):
    G = green_matrix(4).entries.copy()
    G[1, 2] = np.nan
    monkeypatch.setattr("chebgreen.cli.green_matrix", lambda n: GreenMatrix(n, G))
    assert main(["green", "--n", "4", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "non-finite" in err


def test_green_rejects_degree_zero(capsys):
    # every command parses --n through the library's degree guard: a degree
    # below 1, or text that is no integer, is a usage error naming --n
    for argv in (["green"], ["solve", "--rhs", "one"], ["verify"]):
        for n in ("0", "-1", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--n", n])
            assert exc.value.code == 2, (argv, n)
            err = capsys.readouterr().err
            assert "argument --n: " in err, (argv, n)
            if n != "1.5":
                assert f"grid degree must be >= 1, got {n}" in err, (argv, n)


def test_green_unwritable_path_fails_cleanly(capsys):
    rc = main(["green", "--n", "3", "--out", "/nonexistent-dir/g.csv"])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_constant_rhs(capsys):
    assert main(["solve", "--n", "3", "--rhs", "one"]) == 0
    y = np.array([float(v) for v in capsys.readouterr().out.split()])
    np.testing.assert_allclose(y, [0.0, -0.375, -0.375, 0.0], rtol=0, atol=1e-15)


def test_solve_methods_agree(capsys):
    # on a well-resolved forcing the three paths give the same values
    outs = []
    for method in ("dense-green", "matrix-free", "linear-system"):
        assert main(["solve", "--n", "16", "--rhs", "exp", "--method", method]) == 0
        outs.append([float(v) for v in capsys.readouterr().out.split()])
    np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(outs[2], outs[0], rtol=0, atol=1e-13)


def test_solve_reads_rhs_from_file(tmp_path, capsys):
    rhs = tmp_path / "f.txt"
    rhs.write_text("1.0\n1.0\n1.0\n1.0\n")
    assert main(["solve", "--n", "3", "--rhs", f"file:{rhs}"]) == 0
    from_file = capsys.readouterr().out
    assert main(["solve", "--n", "3", "--rhs", "one"]) == 0
    assert from_file == capsys.readouterr().out


def test_solve_reads_whitespace_separated_values_on_one_line(tmp_path, capsys):
    rhs = tmp_path / "f.txt"
    rhs.write_text("1 1\t1  1\n")
    assert main(["solve", "--n", "3", "--rhs", f"file:{rhs}"]) == 0
    from_file = capsys.readouterr().out
    assert main(["solve", "--n", "3", "--rhs", "one"]) == 0
    assert from_file == capsys.readouterr().out


def test_solve_file_that_is_not_text_is_usage_error(tmp_path):
    rhs = tmp_path / "f.txt"
    rhs.write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", f"file:{rhs}"])
    assert exc.value.code == 2


def test_solve_file_length_mismatch_is_usage_error(tmp_path):
    rhs = tmp_path / "f.txt"
    rhs.write_text("1.0\n2.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", f"file:{rhs}"])
    assert exc.value.code == 2


def test_solve_file_with_junk_is_usage_error(tmp_path):
    rhs = tmp_path / "f.txt"
    rhs.write_text("1.0\ntwo\n3.0\n4.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", f"file:{rhs}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_solve_file_with_non_finite_value_is_usage_error(token, tmp_path):
    rhs = tmp_path / "f.txt"
    rhs.write_text(f"1.0\n{token}\n3.0\n4.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", f"file:{rhs}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [2, 3, 16, 33])
def test_solve_output_is_byte_identical_to_reference(n, method, capsys):
    x = cgl_points(n)
    y = solve_bvp(NodeVector(np.sin(x), grid_degree=n), method).values
    assert main(["solve", "--n", str(n), "--rhs", "sin", "--method", method]) == 0
    assert capsys.readouterr().out == "\n".join(format(v, ".17g") for v in y) + "\n"


def test_solve_above_the_weight_overflow_degree(capsys):
    # the CGL weights' common scale 2^(N-1)/N overflows doubles from n = 1025
    # on; the solvers use the weights' signs alone, where the scale cancels
    assert main(["solve", "--n", "1100", "--rhs", "exp"]) == 0
    y = np.array([float(v) for v in capsys.readouterr().out.split()])
    x = cgl_points(1100)
    assert y[0] == 0.0 and y[-1] == 0.0
    exact = np.exp(x) - 0.5 * (np.e + 1 / np.e) - 0.5 * (np.e - 1 / np.e) * x
    assert np.max(np.abs(y - exact)) < 1e-10


def test_solve_missing_file_is_runtime_error(capsys):
    rc = main(["solve", "--n", "3", "--rhs", "file:/nonexistent-dir/f.txt"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_unknown_rhs_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", "cosh"])
    assert exc.value.code == 2


def test_solve_unknown_method_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", "one", "--method", "lu"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes_and_reports(capsys):
    assert main(["verify", "--n", "8", "--check", "all"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {r["check"] for r in rows}
    assert {"oracle", "centrosymmetry", "left-inverse", "right-inverse"} <= names
    for r in rows:
        assert set(r) == {"check", "n", "deviation", "tolerance"}
        assert r["deviation"] <= r["tolerance"]
        assert r["n"] == 8


def test_verify_single_check(capsys):
    assert main(["verify", "--n", "16", "--check", "left-inverse"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["check"] == "left-inverse"


def test_verify_skips_reference_check_on_large_grids(capsys):
    assert main(["verify", "--n", "12", "--check", "all"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert "oracle" not in {r["check"] for r in rows}


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_verify_bc_inverse_at_large_degree(capsys):
    # the extension matrix used to underflow past n ~ 800, giving a NaN here
    assert main(["verify", "--n", "1100", "--check", "bc-inverse"]) == 0
    (row,) = _strict_json(capsys.readouterr().out)
    assert row["check"] == "bc-inverse" and row["n"] == 1100
    assert row["deviation"] <= row["tolerance"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_writes_non_finite_deviation_as_null_and_fails(bad, monkeypatch, capsys):
    lo, hi, _, tol = cli._CHECKS["left-inverse"]
    monkeypatch.setitem(cli._CHECKS, "left-inverse", (lo, hi, lambda n: bad, tol))
    assert main(["verify", "--n", "8", "--check", "all"]) == 1
    rows = {r["check"]: r for r in _strict_json(capsys.readouterr().out)}
    assert rows["left-inverse"]["deviation"] is None
    assert all(r["deviation"] <= r["tolerance"]
               for name, r in rows.items() if name != "left-inverse")


def _scale_fault(G):
    return G * (1.0 + 1e-9)


def _entry_fault(G):
    # a centrosymmetric pair, so the exact centrosymmetry check stays blind
    n = len(G) - 1
    k, i = n // 3, n // 4
    G = G.copy()
    G[[k, n - k], [i, n - i]] += 1e-9 * np.abs(G).max()
    return G


# the checks each fault fails; with no failed check verify exits 0.  Above
# n = 10 no check sees a uniform relative error in G this small: the
# inverse tolerances grow like n^3 eps and the oracle stops at n = 10
FAULT_TABLE = {
    (_scale_fault, 8): {"bc-inverse", "left-inverse", "oracle", "right-inverse"},
    (_scale_fault, 64): set(),
    (_scale_fault, 256): set(),
    (_entry_fault, 8): {"bc-inverse", "left-inverse", "oracle", "right-inverse"},
    (_entry_fault, 64): {"bc-inverse", "left-inverse", "right-inverse"},
    (_entry_fault, 256): {"left-inverse", "right-inverse"},
}


@pytest.mark.parametrize("fault, n", FAULT_TABLE, ids=lambda v: getattr(v, "__name__", v))
def test_verify_fails_exactly_the_tabulated_checks_on_a_faulty_green_matrix(
        fault, n, monkeypatch, capsys):
    def faulty(N):
        return GreenMatrix(N, fault(green_matrix(N).entries))

    # the CLI's own checks and green_bc_matrix, behind bc-inverse
    monkeypatch.setattr(cli, "green_matrix", faulty)
    monkeypatch.setattr(operators, "green_matrix", faulty)
    code = main(["verify", "--n", str(n)])
    rows = _strict_json(capsys.readouterr().out)
    failed = {r["check"] for r in rows
              if r["deviation"] is None or r["deviation"] > r["tolerance"]}
    assert failed == FAULT_TABLE[fault, n]
    assert code == (1 if failed else 0)


VERIFY_SWEEP = (list(range(1, 41)) + [63, 64, 65, 127, 128, 129, 255, 256, 257]
                + [511, 512, 513, 1023, 1024, 1025])


@pytest.mark.parametrize("n", VERIFY_SWEEP)
def test_verify_all_checks_hold_across_degrees(n, capsys):
    assert main(["verify", "--n", str(n)]) == 0
    rows = _strict_json(capsys.readouterr().out)
    assert rows and all(r["n"] == n for r in rows)
    for r in rows:
        assert np.isfinite(r["deviation"]) and r["deviation"] <= r["tolerance"], r


# at n = 3 the B.A product sets the bc-inverse deviation, above it A.B does
@pytest.mark.parametrize("n", [3, 64, 257, 512])
def test_in_place_deviations_equal_direct_formulas_bitwise(n):
    G = green_matrix(n).entries
    assert cli._dev_centrosymmetry(n) == float(np.max(np.abs(G - G[::-1, ::-1])))
    A = diff2_bc_matrix(n)
    B = green_bc_matrix(n)
    eye = np.eye(n + 1)
    assert cli._dev_bc_inverse(n) == max(float(np.max(np.abs(A @ B - eye))),
                                         float(np.max(np.abs(B @ A - eye))))


# the degrees where a row panel of the verify checks ends: their row count
# (n + 1, or n - 1 for R_down) one below, at and one past a multiple of the
# panel height (a quarter of the rows, rounded up to a multiple of 24), a
# last single row joined to the panel before it (n = 24, 96), and not near
# a multiple
PANEL_EDGE_DEGREES = [22, 23, 24, 25, 26, 62, 63, 64, 95, 96, 97, 98, 99, 190, 191, 300, 1024]


def _rounding_gap(n, *factors):
    # the most two roundings of the product of the factors can differ by
    # entrywise: each is within p (n + 1) u |F_1| ... |F_k| of the exact
    # product (p = k - 1 products of inner length n + 1, unit roundoff
    # u = eps / 2), and twice that is returned, a factor 2 to spare
    scale = np.abs(factors[-1])
    for F in factors[-2::-1]:
        scale = np.abs(F) @ scale
    return 2 * (len(factors) - 1) * (n + 1) * np.finfo(float).eps * float(scale.max())


# Each inverse check against its formula with one-shot products, in the
# same order.  A row panel's product keeps the one-shot product's bits on
# one BLAS thread; with more, OpenBLAS may round the last columns of the two
# differently, so the checks are held to the rounding of the products.
# Centrosymmetry and green_bc_matrix run no product and stay bitwise.
@pytest.mark.parametrize("n", PANEL_EDGE_DEGREES)
def test_panel_products_agree_with_direct_formulas(n):
    G = green_matrix(n).entries
    assert cli._dev_centrosymmetry(n) == float(np.max(np.abs(G - G[::-1, ::-1])))
    x = cgl_points(n)
    E = operators.extension_matrix(n)
    B = np.empty((n + 1, n + 1))
    B[:, 0] = 0.5 * (x[0] + x)
    B[:, -1] = -0.5 * (x[-1] + x)
    B[:, 1:-1] = G[:, :1] * E[0] + G[:, 1:-1] + G[:, -1:] * E[-1]
    assert green_bc_matrix(n).tobytes() == B.tobytes()
    A, eye = diff2_bc_matrix(n), np.eye(n + 1)
    formula = max(float(np.max(np.abs(A @ B - eye))), float(np.max(np.abs(B @ A - eye))))
    gap = max(_rounding_gap(n, A, B), _rounding_gap(n, B, A))
    assert abs(cli._dev_bc_inverse(n) - formula) <= gap
    D2, eye = operators.diff2_matrix(n), np.eye(n - 1)
    formula = float(np.max(np.abs((G @ D2)[1:-1, 1:-1] - eye)))
    assert abs(cli._dev_left_inverse(n) - formula) <= _rounding_gap(n, G, D2)
    R_up, R_down = operators.reinterp_matrix(n - 2, n), operators.reinterp_matrix(n, n - 2)
    formula = float(np.max(np.abs(R_down @ (D2 @ (G @ R_up)) - eye)))
    assert (abs(cli._dev_right_inverse(n) - formula)
            <= _rounding_gap(n, R_down, D2, G, R_up))


# every check that runs at n = 256 (oracle stops at n = 10)
@pytest.mark.parametrize("name", [name for name, (lo, hi, _, _) in cli._CHECKS.items()
                                  if hi is None or hi >= 256])
def test_verify_check_working_set_stays_within_four_matrices(name):
    # each deviation holds at most about three (n+1)^2 arrays at a time
    n = 256
    deviation = cli._CHECKS[name][2]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        deviation(n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (n + 1) ** 2


# two (n+1)^2 arrays and a panel a quarter of the rows high at n = 1024
@pytest.mark.parametrize("name", [name for name, (lo, hi, _, _) in cli._CHECKS.items()
                                  if hi is None or hi >= 1024])
def test_verify_check_working_set_stays_within_two_matrices_and_a_panel(name):
    n = 1024
    deviation = cli._CHECKS[name][2]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        deviation(n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 8 * (n + 1) ** 2


def test_verify_below_minimum_degree_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--check", "right-inverse"])
    assert exc.value.code == 2


# the CLI is where each check's degree range is enforced: the deviations
# themselves take any degree their builders do
@pytest.mark.parametrize("name", [name for name, (lo, _, _, _) in cli._CHECKS.items()
                                  if lo >= 2])
def test_verify_check_below_its_least_degree_names_the_least(name, capsys):
    lo = cli._CHECKS[name][0]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", str(lo - 1), "--check", name])
    assert exc.value.code == 2
    assert f"check {name} needs --n >= {lo}" in capsys.readouterr().err


def test_verify_oracle_check_above_its_cap_names_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "11", "--check", "oracle"])
    assert exc.value.code == 2
    assert "check oracle is limited to --n <= 10" in capsys.readouterr().err


@pytest.mark.parametrize("name", cli._CHECKS)
def test_check_degree_limits_agree_with_their_deviations(name):
    # each deviation runs at the least n in _CHECKS, and a cap is the
    # deviation's own limit
    lo, hi, deviation, _ = cli._CHECKS[name]
    assert np.isfinite(deviation(lo))
    if hi is not None:
        assert np.isfinite(deviation(hi))
        with pytest.raises(ValueError):
            deviation(hi + 1)


def test_verify_oracle_check_starts_at_degree_one(capsys):
    # every degree runs the assembly, so the exact reference checks it from n = 1
    for n in ("1", "2"):
        assert main(["verify", "--n", n, "--check", "oracle"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["check"] == "oracle" and row["deviation"] <= row["tolerance"]
        assert main(["verify", "--n", n]) == 0
        assert "oracle" in {r["check"] for r in json.loads(capsys.readouterr().out)}


def test_verify_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "8", "--check", "unitarity"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# commands


def test_commands_are_green_solve_verify(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{green,solve,verify}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n-list", "4"])
    assert exc.value.code == 2



def _out_of_memory(n):
    raise MemoryError


@pytest.mark.parametrize("argv", [
    ["green", "--n", "64"],
    ["verify", "--n", "64"],
    ["solve", "--n", "64", "--rhs", "one", "--method", "dense-green"],
])
def test_out_of_memory_exits_cleanly(argv, monkeypatch, capsys):
    # the build fails as it would at a degree too large for memory; dense-green
    # solves build their matrix through operators, export and the checks through cli
    monkeypatch.setattr("chebgreen.cli.green_matrix", _out_of_memory)
    monkeypatch.setattr("chebgreen.operators.green_matrix", _out_of_memory)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory at degree {argv[2]}\n"
