"""End-to-end checks of the command-line interface."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebgreen import METHODS, GreenMatrix, NodeVector, cgl_points, green_matrix, solve_bvp
from chebgreen import cli, operators
from chebgreen.cli import _WIDTH, _MatrixText, _format_cells, diff2_bc_matrix, green_bc_matrix, main
from chebgreen.core import _cgl_weight_signs
from chebgreen.operators import _barycentric_rows, _diff2_rows, _fold
from chebgreen.quadrature import consistent_gram_matrix


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
@pytest.mark.parametrize("n", list(range(1, 13)) + [63, 64, 127, 128, 129, 255, 256, 257, 1025])
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
    # G is centrosymmetric bit for bit: the orderings share their entries'
    # bytes, and the JSON differs only in its "ordering" line
    other = tmp_path / f"other.{fmt}"
    flip = [a for a in argv if a != "--ascending"] + ([] if ascending else ["--ascending"])
    assert main(flip + ["--out", str(other)]) == 0
    mine, theirs = target.read_text().split("\n"), other.read_text().split("\n")
    assert len(mine) == len(theirs)
    differing = [(a, b) for a, b in zip(mine, theirs) if a != b]
    labels = ('  "ordering": "descending",', '  "ordering": "ascending",')
    assert differing == ([] if fmt == "csv" else [labels[::-1] if ascending else labels])


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (7, 5), (8, 8)])
def test_format_rows_matches_reference_on_random_matrices(shape):
    # _MatrixText writes the bottom rows as the top ones mirrored, so it
    # takes only matrices that equal their double flip bit for bit
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    C = M + M[::-1, ::-1]
    # signed zeros that mirror bit for bit
    Z = C.copy()
    Z[0, 0] = Z[-1, -1] = -0.0
    for A in (C, Z, np.array([[-0.0, 0.0, 1.0], [1.0, 0.0, -0.0]])):
        bits = A.view(np.uint64)
        assert np.array_equal(bits, bits[::-1, ::-1])
        assert b"".join(_MatrixText(A, "csv", "")) == _reference_csv(A).encode()
        # the JSON layout with a head as _cmd_green writes it
        head = json.dumps({"degree": 0, "ordering": "x"}, indent=2)[:-2]
        head += ',\n  "entries": [\n    [\n      '
        text = _MatrixText(A, "json", head)
        assert b"".join(text) == _reference_json(0, "x", A).encode()
        assert len(text) == len(_reference_json(0, "x", A))


def _assert_cells_match_python(values):
    # each cell, its 0 bytes dropped, against the per-float formula
    x = np.array(values, dtype=np.float64)
    out = np.empty(x.shape + (_WIDTH,), np.uint8)
    for shortest, cell in ((False, lambda v: format(v, ".17g")), (True, repr)):
        _format_cells(x, shortest, out)
        assert [bytes(c[c != 0]).decode() for c in out] == [cell(v) for v in values]


def _edge_values():
    tens = [10.0 ** -k for k in range(1, 41)]
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308]
    values += [2.0 ** -k for k in range(1, 201)]
    values += [float(v) for t in tens for v in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))]
    # 17-digit roundings that carry into the next decade, and repr's
    values += [9.9999999999999995e-05, 0.99999999999999989, 9.999999999999999e-06,
               0.00099999999999999999, 0.099999999999999992, 9.9999999999999991e-21]
    # the fixed/scientific switch between 1e-4 (fixed) and 1e-5 (scientific)
    values += [1e-4, 9.99999e-05, 1.00001e-4, 1e-5, 9.99999e-06, 1.00001e-05, 0.00012345, 1.2345e-05]
    values += [1.2345678901234567e-100, 3e-100, 1e-99, 9.999999999999999e-100,
               1.2345678901234567e-300, 1e-300]
    values += [1.0, 1.5, 123.456, 1e15, 1e16, 1.2345678901234567e16, 1e22, 1e300, 1.7976931348623157e308]
    return values + [-v for v in values]


def test_cell_kernel_matches_python_on_edge_values():
    _assert_cells_match_python(_edge_values())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50)
       | st.lists(st.floats(1e-99, 1.0, exclude_max=True), min_size=1, max_size=50))
def test_cell_kernel_matches_python_on_drawn_floats(values):
    _assert_cells_match_python(values + [-v for v in values])


@pytest.mark.parametrize("n", [64, 257, 1024])
def test_cell_kernel_declines_few_green_cells(n):
    # the top half's zero row, and a power of two or a tie now and then: a
    # slide into Python's formatter shows here first
    G = green_matrix(n).entries[:(n + 2) // 2]
    for shortest in (False, True):
        out = np.empty(G.shape + (_WIDTH,), np.uint8)
        assert _format_cells(G, shortest, out) <= n + 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_green_non_finite_matrix_fails_cleanly(fmt, monkeypatch, capsys):
    G = green_matrix(4).entries.copy()
    G[1, 2] = np.nan
    monkeypatch.setattr("chebgreen.cli.green_matrix", lambda n: GreenMatrix(G))
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


def test_absurd_degree_is_a_usage_error_naming_n(capsys):
    # numpy cannot describe a matrix of this degree and would fail with an
    # error naming another cause; every command refuses it while parsing
    for argv in (["green"], ["solve", "--rhs", "one"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "100000000000000000000"])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "argument --n: degree 100000000000000000000 is above" in err, argv
        assert "Traceback" not in err, argv


def test_degree_ceiling_is_the_largest_square_numpy_can_describe():
    # n + 1 = isqrt(max intp // 8) is the side of the largest float64 square
    # numpy can describe (64-bit intp); parsing a degree allocates nothing
    assert cli._degree("1073741822") == 1073741822
    with pytest.raises(argparse.ArgumentTypeError, match="^degree 1073741823 is above 1073741822,"):
        cli._degree("1073741823")


def test_green_unwritable_path_fails_cleanly(capsys):
    rc = main(["green", "--n", "3", "--out", "/nonexistent-dir/g.csv"])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [
    ["green", "--n", "8"],
    ["solve", "--n", "8", "--rhs", "exp"],
    ["verify", "--n", "8"],
], ids=lambda argv: argv[0])
def test_unwritable_stdout_fails_cleanly(argv):
    # every write to /dev/full fails: the command reports it in one line,
    # and the interpreter's flush at exit finds nothing left to write.  The
    # child's stdout is buffered, as it is by default
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-m", "chebgreen.cli", *argv], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=env)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>: "), lines


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # verify's oracle is a long-double product of cosine tables, and the
    # cell kernel takes its powers of ten from Python's integers,
    # so no CLI start pays for importing numpy.polynomial, fractions or decimal
    code = ("import sys, chebgreen.cli; "
            "print(sorted({'numpy.polynomial', 'fractions', 'decimal'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "[]\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_green_out_on_a_full_device_fails_mid_stream():
    # the export is written in panels: opening /dev/full succeeds, a panel's
    # write fails with more left to make, and the command reports it in one line
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "chebgreen.cli", "green", "--n", "300",
                          "--out", "/dev/full"], capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write /dev/full: "), lines


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_green_export_working_set_is_g_the_top_cells_and_a_panel(fmt, tmp_path, traced_peak):
    # G, the top half's cells (about 1.5 (n+1)^2 doubles) and one panel; an
    # export that builds its whole text peaks at 7 (CSV) to 12.4 (JSON)
    n = 1024
    argv = ["green", "--n", str(n), "--format", fmt, "--out", str(tmp_path / f"g.{fmt}")]
    assert traced_peak(main, argv) <= 3 * 8 * (n + 1) ** 2


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
    y = solve_bvp(NodeVector(np.sin(x)), method).values
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


@pytest.mark.parametrize("method", METHODS)
def test_solve_overflowing_forcing_fails_cleanly(method, tmp_path):
    # a finite forcing whose solution overflows: one error line and exit 1,
    # with no traceback and no numpy warning on stderr
    rhs = tmp_path / "f.txt"
    rhs.write_text("1e308\n" * 9)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "chebgreen.cli", "solve", "--n", "8", "--rhs",
                          f"file:{rhs}", "--method", method],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert lines == [f"error: the degree-8 {method} solution has non-finite values"], lines


def test_solve_missing_file_is_runtime_error(capsys):
    rc = main(["solve", "--n", "3", "--rhs", "file:/nonexistent-dir/f.txt"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_unknown_rhs_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "3", "--rhs", "cosh"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", METHODS)
def test_solve_least_degree_per_method(method, capsys):
    # dense-green runs from n = 1, where G is zero; the other methods need n >= 2
    argv = ["solve", "--n", "1", "--rhs", "one", "--method", method]
    if method == "dense-green":
        assert main(argv) == 0
        assert capsys.readouterr().out == "0\n0\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"method {method} needs --n >= 2" in capsys.readouterr().err


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


# the benchmark fixes this set: its verify workload fails every operation whose
# check names differ from six names plus oracle for n <= 10, and its
# self-check runs verify at n = 16 expecting no oracle row and four
# green_matrix builds.  A new check under `all`, or a move of the oracle's
# cap, changes the set and has to change the benchmark too.  Below n = 4 the
# checks that need a larger grid drop out
SIX_CHECKS = {"centrosymmetry", "cc-weights", "bc-inverse", "left-inverse",
              "right-inverse", "symmetry"}
VERIFY_ALL_CHECKS = {
    1: {"oracle", "centrosymmetry", "cc-weights"},
    10: SIX_CHECKS | {"oracle"},
    11: SIX_CHECKS,
    16: SIX_CHECKS,
    256: SIX_CHECKS,
}


@pytest.mark.parametrize("n", VERIFY_ALL_CHECKS)
def test_verify_all_runs_exactly_the_fixed_check_set(n, capsys):
    assert main(["verify", "--n", str(n), "--check", "all"]) == 0
    names = [r["check"] for r in json.loads(capsys.readouterr().out)]
    assert len(names) == len(set(names))
    assert set(names) == VERIFY_ALL_CHECKS[n]


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


def _unmirrored_fault(G):
    # one entry in the bottom half, which the product checks never read
    # (they multiply the parity blocks of G's top rows), its mirror left alone
    n = len(G) - 1
    k, i = n - n // 3, n // 4
    G = G.copy()
    G[k, i] += 1e-9 * np.abs(G).max()
    return G


# the checks each fault fails; with no failed check verify exits 0.  Above
# n = 10 no check sees a uniform relative error in G this small: the
# inverse tolerances grow like n^3 eps, and verify's fixed check set runs
# the oracle only up to n = 10.  At n = 1024 no check sees the entry fault
# either: it reads 0.11 and 0.29 of the left- and right-inverse tolerances.
# A fault that breaks the mirror fails the exact centrosymmetry check
FAULT_TABLE = {
    (_scale_fault, 8): {"bc-inverse", "left-inverse", "oracle", "right-inverse"},
    (_scale_fault, 64): set(),
    (_scale_fault, 256): set(),
    (_scale_fault, 1024): set(),
    (_entry_fault, 8): {"bc-inverse", "left-inverse", "oracle", "right-inverse"},
    (_entry_fault, 64): {"bc-inverse", "left-inverse", "right-inverse"},
    (_entry_fault, 256): {"left-inverse", "right-inverse"},
    (_entry_fault, 1024): set(),
    (_unmirrored_fault, 8): {"centrosymmetry", "oracle"},
    (_unmirrored_fault, 64): {"centrosymmetry"},
    (_unmirrored_fault, 256): {"centrosymmetry"},
    (_unmirrored_fault, 1024): {"centrosymmetry"},
}


@pytest.mark.parametrize("fault, n", FAULT_TABLE, ids=lambda v: getattr(v, "__name__", v))
def test_verify_fails_exactly_the_tabulated_checks_on_a_faulty_green_matrix(
        fault, n, monkeypatch, capsys):
    def faulty(N):
        return GreenMatrix(fault(green_matrix(N).entries))

    # every check, green_bc_matrix behind bc-inverse too, builds G through cli
    monkeypatch.setattr(cli, "green_matrix", faulty)
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


# at n = 3 the B.A product sets the bc-inverse deviation, above it A.B does.
# Centrosymmetry runs no product and keeps the formula's bits; bc-inverse
# multiplies parity blocks, so it is held to the rounding of the products
@pytest.mark.parametrize("n", [3, 64, 257, 512])
def test_in_place_deviations_equal_direct_formulas_bitwise(n):
    G = green_matrix(n).entries
    assert cli._dev_centrosymmetry(n) == float(np.max(np.abs(G - G[::-1, ::-1])))
    A = diff2_bc_matrix(n)
    B = green_bc_matrix(n)
    eye = np.eye(n + 1)
    formula = max(float(np.max(np.abs(A @ B - eye))), float(np.max(np.abs(B @ A - eye))))
    gap = max(_rounding_gap(n, A, B), _rounding_gap(n, B, A))
    assert abs(cli._dev_bc_inverse(n) - formula) <= gap


def test_green_bc_matrix_leaves_green_matrix_read_only_and_unchanged(monkeypatch):
    # G may be shared, so the bc operator reads it and never writes it
    G = green_matrix(200)
    before = G.entries.copy()
    monkeypatch.setattr(cli, "green_matrix", lambda N: G)
    for stop in (None, 101):
        green_bc_matrix(200, stop)
        assert not G.entries.flags.writeable
        assert G.entries.tobytes() == before.tobytes()


# degrees of both parities, odd and even block sizes, from 22 to 1024
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


def _centrosymmetric(rng, rows, cols):
    # bitwise: a + b == b + a in floating point
    A = rng.standard_normal((rows, cols))
    return A + A[::-1, ::-1]


def _fold_reference(A):
    # the parity blocks of the full centrosymmetric A, entry by entry
    r, c = A.shape
    even = np.empty(((r + 1) // 2, (c + 1) // 2))
    odd = np.empty((r // 2, c // 2))
    for i in range(len(even)):
        for j in range(even.shape[1]):
            even[i, j] = A[i, j] + A[i, c - 1 - j] if j < c // 2 else A[i, j]
    for i in range(len(odd)):
        for j in range(odd.shape[1]):
            odd[i, j] = A[i, j] - A[i, c - 1 - j]
    return even, odd


def _unfold_reference(even, odd, cols):
    top = np.empty((len(even), cols))
    for i in range(len(top)):
        for j in range(cols):
            m = min(j, cols - 1 - j)
            if m == cols // 2:  # the middle column of an odd count
                top[i, j] = even[i, m]
            elif i >= len(odd):  # the middle row of an odd count
                top[i, j] = even[i, m] * 0.5
            elif j == m:
                top[i, j] = (even[i, m] + odd[i, m]) * 0.5
            else:
                top[i, j] = (even[i, m] - odd[i, m]) * 0.5
    return top


def _unfold(even, odd, cols):
    # _unfold_reference in slices, fast enough for the degree sweep: the
    # top rows are (even +- odd) / 2 on each column pair (even / 2 on the
    # middle row of an odd row count) and even's middle column
    q, k = cols // 2, len(odd)
    top = np.empty((len(even), cols))
    left, right = top[:, :q], top[:, :cols - q - 1:-1]
    left[:] = right[:] = even[:, :q]
    left[:k] += odd
    right[:k] -= odd
    left *= 0.5
    right *= 0.5
    top[:, q:cols - q] = even[:, q:]
    return top


FOLD_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (8, 8), (9, 9), (2, 3), (3, 2),
               (3, 4), (4, 3), (4, 5), (5, 4), (5, 3), (3, 5), (6, 8), (9, 7), (1, 4)]


@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=str)
def test_fold_and_unfold_equal_index_formulas_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    rows, cols = shape
    A = _centrosymmetric(rng, rows, cols)
    top = A[:(rows + 1) // 2].copy()
    even, odd = _fold(top, rows)
    ref_even, ref_odd = _fold_reference(A)
    assert even.tobytes() == ref_even.tobytes() and odd.tobytes() == ref_odd.tobytes()
    assert np.array_equal(top, A[:(rows + 1) // 2])  # the top rows are left as they were
    # unfold any pair of blocks, not only a fold's: that is what a product gives
    even, odd = rng.standard_normal(even.shape), rng.standard_normal(odd.shape)
    assert _unfold(even, odd, cols).tobytes() == _unfold_reference(even, odd, cols).tobytes()
    np.testing.assert_allclose(_unfold_reference(*_fold(top, rows), cols), top, rtol=0,
                               atol=4 * np.finfo(float).eps * np.abs(A).max())


@pytest.mark.parametrize("N", [2, 3, 4, 5, 16, 17, 64, 65])
def test_fold_of_the_stripped_rows_view_equals_the_index_formulas_bitwise(N):
    # the stripped solve folds a strided view: D2's top rows without row 0
    # and without the boundary columns
    even, odd = _fold(_diff2_rows(N, N // 2 + 1)[1:, 1:-1], N - 1)
    ref_even, ref_odd = _fold_reference(operators.diff2_matrix(N)[1:-1, 1:-1])
    assert even.tobytes() == ref_even.tobytes() and odd.tobytes() == ref_odd.tobytes()


@pytest.mark.parametrize("rows, inner, cols", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 3, 4),
                                               (4, 6, 5), (7, 5, 9), (64, 65, 63)])
def test_block_products_unfold_to_the_product(rows, inner, cols):
    # the even and odd block products are the product's own blocks
    rng = np.random.default_rng(rows * inner * cols)
    A, B = _centrosymmetric(rng, rows, inner), _centrosymmetric(rng, inner, cols)
    blocks = [a @ b for a, b in zip(_fold(A[:(rows + 1) // 2], rows),
                                    _fold(B[:(inner + 1) // 2], inner))]
    np.testing.assert_allclose(_unfold_reference(*blocks, cols), (A @ B)[:(rows + 1) // 2],
                               rtol=0, atol=_rounding_gap(inner, A, B))


def _unfolded_deviation(blocks, cols, interior=False):
    # max |P - I| over the top rows of P unfolded from its blocks, and with
    # interior over those rows' [1:, 1:-1]
    top = _unfold(*blocks, cols)
    if interior:
        top = top[1:, 1:-1]
    k = np.arange(len(top))
    top[k, k] -= 1.0
    return float(np.abs(top).max())


@pytest.mark.parametrize("shape", [s for s in FOLD_SHAPES if s[0] == s[1]], ids=str)
def test_identity_deviation_equals_the_unfolded_product_minus_identity(shape):
    # on near-identity blocks, as the inverse checks give them: within eps / 2
    # of the unfolded formula, which subtracts 1 after the pair sum rather
    # than before it, and bitwise where its largest entry is off the
    # diagonal by more than that over every diagonal one
    size, half_eps = shape[0], np.finfo(float).eps / 2
    rng = np.random.default_rng(size)
    for scale in (1e-15, 1e-9, 1e-3, 0.1):
        for _ in range(20):
            even, odd = (np.eye(k) + scale * rng.standard_normal((k, k))
                         for k in ((size + 1) // 2, size // 2))
            P = np.abs(_unfold_reference(even, odd, size) - np.eye(size)[:(size + 1) // 2])
            ref = float(P.max())
            got = cli._identity_deviation(even, odd)
            assert abs(got - ref) <= half_eps
            diagonal = np.diagonal(P).copy()
            np.fill_diagonal(P, 0.0)
            if P.max() > diagonal.max() + half_eps:
                assert got == ref


@pytest.mark.parametrize("n", [n for n in VERIFY_SWEEP if n >= 2])
def test_inverse_deviations_equal_their_unfolded_block_products(n):
    # each inverse check against max |P - I| over its product's top rows,
    # unfolded from the same block products, formed here as the check forms
    # them: the two differ only on the diagonal, by at most eps / 2
    h, half_eps = n // 2 + 1, np.finfo(float).eps / 2
    A, B = _fold(diff2_bc_matrix(n, h), n + 1), _fold(green_bc_matrix(n, h), n + 1)
    formula = max(_unfolded_deviation([a @ b for a, b in zip(A, B)], n + 1),
                  _unfolded_deviation([b @ a for a, b in zip(A, B)], n + 1))
    assert abs(cli._dev_bc_inverse(n) - formula) <= half_eps
    if n < 3:
        return
    G = _fold(green_matrix(n).entries[:h], n + 1)
    D2 = _fold(_diff2_rows(n, h), n + 1)
    formula = _unfolded_deviation([g @ d for g, d in zip(G, D2)], n + 1, interior=True)
    assert abs(cli._dev_left_inverse(n) - formula) <= half_eps
    if n < 4:
        return
    x, x_low = cgl_points(n), cgl_points(n - 2)
    R_up = _fold(_barycentric_rows(x_low, _cgl_weight_signs(n - 2), x[:h]), n + 1)
    R_down = _fold(_barycentric_rows(x, _cgl_weight_signs(n), x_low[:h - 1]), n - 1)
    P = [r @ (d @ (g @ u)) for r, d, g, u in zip(R_down, D2, G, R_up)]
    assert abs(cli._dev_right_inverse(n) - _unfolded_deviation(P, n - 1)) <= half_eps


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17])
def test_gram_and_basis_blocks_are_the_parity_blocks(n):
    # Q^T S Q from the folded odd rows against the full Gram matrix, with Q
    # built by index (node pairs j and n - j, the middle node alone), and
    # the basis blocks against the full basis's top rows of one parity
    S = consistent_gram_matrix(n)
    for sign, w, S_b in zip((1.0, -1.0), cli._pair_weights(n + 1), cli._gram_blocks(n)):
        Q = np.zeros((n + 1, len(w)))
        for j in range(len(w)):
            Q[n - j, j] = sign
            Q[j, j] = 1.0
        np.testing.assert_array_equal(Q.T @ Q, np.diag(w))
        np.testing.assert_allclose(S_b, Q.T @ S @ Q, rtol=0, atol=8 * n * np.finfo(float).eps)
    x = cgl_points(n)
    B = (1.0 - x * x)[:, None] * np.cos(np.outer(np.arange(n + 1) * (np.pi / n), np.arange(n - 1)))
    for parity in (0, 1):
        top = B[:(n + 2 - parity) // 2, parity::2]
        assert cli._boundary_basis(n, parity).tobytes() == np.ascontiguousarray(top).tobytes()


# Each inverse check against its formula with one-shot products, in the
# same order.  The checks multiply parity blocks, so they are held to the
# rounding of the products.  Centrosymmetry and green_bc_matrix run no
# product and stay bitwise.
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


# 2.3 (n+1)^2 doubles at n = 256 and 1024: the parity-block checks hold G and
# half-size blocks, about 1.5 (n+1)^2 at n = 1024, and at n = 256 up to 1.9,
# where green_matrix's own build peaks
@pytest.mark.parametrize("name", [name for name, (lo, hi, _, _) in cli._CHECKS.items()
                                  if hi is None or hi >= 1024])
def test_verify_check_working_set_stays_within_two_matrices_and_a_panel(name, traced_peak):
    deviation = cli._CHECKS[name][2]
    for n in (256, 1024):
        assert traced_peak(deviation, n) <= 2.3 * 8 * (n + 1) ** 2, n


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
    # each deviation runs at the least n in _CHECKS and at its cap, and past
    # it: the oracle's cap fixes verify's check set, not the reference's range
    lo, hi, deviation, _ = cli._CHECKS[name]
    assert np.isfinite(deviation(lo))
    if hi is not None:
        assert np.isfinite(deviation(hi)) and np.isfinite(deviation(hi + 1))


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
    # solves apply G through green, export and the checks build it through cli
    monkeypatch.setattr("chebgreen.cli.green_matrix", _out_of_memory)
    monkeypatch.setattr("chebgreen.green._apply_green_dense", _out_of_memory)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory at degree {argv[2]}\n"
