"""The package's public names and the layering of its modules."""

import ast
import dataclasses
import graphlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chebgreen
from references import barycentric_weights_general, dct1_naive, green_matrix_dense_oracle

PUBLIC = {
    "GreenMatrix", "METHODS", "NodeVector", "__version__",
    "apply_green_matrix_free", "cc_weights", "cgl_points", "consistent_gram_matrix",
    "dct1", "diff2_matrix", "diff_matrix", "extension_matrix", "green_matrix",
    "reinterp_matrix", "solve_bvp", "solve_stripped",
}


def test_public_names_are_pinned_and_resolve():
    assert len(chebgreen.__all__) == len(set(chebgreen.__all__))
    assert set(chebgreen.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(chebgreen, name) is not None, name
    assert chebgreen.__version__ == "0.1.0"


def test_each_public_name_comes_from_one_module():
    modules = (chebgreen.core, chebgreen.green, chebgreen.operators, chebgreen.quadrature)
    for name in PUBLIC - {"__version__"}:
        (home,) = [m for m in modules if name in m.__all__]
        assert getattr(chebgreen, name) is getattr(home, name)


MODULES = sorted(Path(chebgreen.__file__).parent.glob("*.py"))


def _imports(path):
    """(enclosing function or None, imported package modules) per import."""
    tree = ast.parse(path.read_text())
    enclosing = {}
    for fn in ast.walk(tree):  # breadth first, so an outer function wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                enclosing.setdefault(id(node), fn.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            mods = [a.name for a in node.names] if node.module is None else [node.module]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = []
        else:
            continue
        yield enclosing.get(id(node)), {m.split(".")[0] for m in mods}


def test_the_references_are_public_only_in_their_module():
    # the slow exact references live in the tests' own module: the package
    # has no oracle module, and importing it loads no numpy.polynomial
    assert importlib.util.find_spec("chebgreen.oracle") is None
    code = "import sys, chebgreen; print(sorted({'numpy.polynomial'} & set(sys.modules)))"
    # the child sees the test process's path, src/ included when pytest put it there
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "[]\n"


def test_module_level_imports_form_a_dag():
    graph = {}
    for path in MODULES:
        graph[path.stem] = set()
        for func, mods in _imports(path):
            if func is None:
                graph[path.stem] |= mods
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_only_core_defines_dataclasses():
    # NodeVector and GreenMatrix are the package's only containers; every
    # other builder returns plain arrays or tuples
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                importers.add(path.stem)
    assert importers == {"core"}
    modules = [importlib.import_module(f"chebgreen.{path.stem}") for path in MODULES]
    found = {(obj.__module__, name) for m in modules for name, obj in vars(m).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {("chebgreen.core", "NodeVector"), ("chebgreen.core", "GreenMatrix")}
    # each carries its array alone: the grid degree is read off its length
    fields = {cls: tuple(f.name for f in dataclasses.fields(getattr(chebgreen, cls)))
              for cls in ("NodeVector", "GreenMatrix")}
    assert fields == {"NodeVector": ("values",), "GreenMatrix": ("entries",)}
    with pytest.raises(TypeError):
        chebgreen.NodeVector(np.ones(3), grid_degree=2)


def _functions(stem):
    tree = ast.parse((Path(chebgreen.__file__).parent / f"{stem}.py").read_text())
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_paths_stay_independent_of_the_references_and_the_dct():
    # the exact references the assembly is checked against live in the
    # tests, so no module of src/ imports one; the dense path's primitives
    # and factors (calculus) use no transform, which keeps them independent
    # of the DCT-based matrix-free path
    importers = {path.stem for path in MODULES
                 for _, mods in _imports(path) if "references" in mods}
    assert importers == set()
    transforms = {"dct1", "_node_to_coeff_values"}
    tree, defined = _functions("calculus")
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    from_core = {a.name for node in relative if node.module == "core" for a in node.names}
    assert from_core and not from_core & transforms
    # nor the module itself, through which any transform could be reached
    assert all(a.name != "core" for node in relative if node.module is None for a in node.names)
    # the whole factor build of G lives there, and green's dense functions
    # only assemble and apply it: they name no transform, no matrix-free
    # stage and not core, through which a transform could be reached.  The
    # dense apply's spectrum takes np.fft of its own sine-sum table, never
    # the DCT pipeline
    _, in_green = _functions("green")
    assert "_green_factors" in defined and "_green_factors" not in in_green
    matrix_free = transforms | {"core", "_antiderivative_raw", "apply_green_matrix_free"}
    for function in (in_green["green_matrix"], in_green["_apply_green_dense"],
                     defined["_green_factors"]):
        named = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(function)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & matrix_free, function.name


def test_no_imports_inside_functions():
    found = [(path.stem, func, mods) for path in MODULES
             for func, mods in _imports(path) if func is not None]
    assert found == []


def test_solve_bvp_lives_in_operators():
    assert chebgreen.solve_bvp is chebgreen.operators.solve_bvp
    assert not hasattr(chebgreen.green, "solve_bvp")


SEAMS = {
    "matrix-free": (chebgreen.green, "apply_green_matrix_free"),
    "dense-green": (chebgreen.green, "_apply_green_dense"),
    "linear-system": (chebgreen.operators, "solve_stripped"),
}


@pytest.mark.parametrize("method", chebgreen.METHODS)
def test_solve_bvp_calls_each_method_through_its_patchable_attribute(method, monkeypatch):
    # the benchmark tracer wraps these module attributes; a call that bypasses
    # them would leave the traced solve workload blind to that stage
    calls = dict.fromkeys(SEAMS, 0)
    for name, (module, attr) in SEAMS.items():
        def counted(*args, _fn=getattr(module, attr), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, attr, counted)
    f = chebgreen.NodeVector(np.exp(chebgreen.cgl_points(16)))
    chebgreen.solve_bvp(f, method)
    assert calls == {name: int(name == method) for name in SEAMS}


# every public builder that takes a grid degree, and the tests' dense
# reference, with their other arguments
DEGREE_BUILDERS = {
    "cgl_points": chebgreen.cgl_points,
    "green_matrix": chebgreen.green_matrix,
    "green_matrix_dense_oracle": green_matrix_dense_oracle,
    "diff_matrix": chebgreen.diff_matrix,
    "diff2_matrix": chebgreen.diff2_matrix,
    "reinterp_matrix (from)": lambda N: chebgreen.reinterp_matrix(N, 4),
    "reinterp_matrix (to)": lambda N: chebgreen.reinterp_matrix(4, N),
    "extension_matrix": chebgreen.extension_matrix,
    "cc_weights": chebgreen.cc_weights,
    "consistent_gram_matrix": chebgreen.consistent_gram_matrix,
}

# the smallest degree each builder accepts; the last four take the degree
# from the matrix or node vector they are given
LEAST_DEGREE = {
    "cgl_points": 1, "green_matrix": 1,
    "green_matrix_dense_oracle": 1, "diff_matrix": 1,
    "diff2_matrix": 2, "reinterp_matrix (from)": 1, "reinterp_matrix (to)": 1,
    "extension_matrix": 2,
    "cc_weights": 1, "consistent_gram_matrix": 1,
    "NodeVector": 1, "GreenMatrix": 1, "solve_stripped": 2, "apply_green_matrix_free": 2,
}
RANGE_BUILDERS = DEGREE_BUILDERS | {
    "NodeVector": lambda N: chebgreen.NodeVector(np.ones(N + 1)),
    "GreenMatrix": lambda N: chebgreen.GreenMatrix(np.zeros((N + 1, N + 1))),
    "solve_stripped": lambda N: chebgreen.solve_stripped(chebgreen.NodeVector(np.ones(N + 1))),
    "apply_green_matrix_free":
        lambda N: chebgreen.apply_green_matrix_free(chebgreen.NodeVector(np.ones(N + 1))),
}


@pytest.mark.parametrize("name", DEGREE_BUILDERS)
def test_non_integer_degree_is_a_type_error_naming_it(name):
    build = DEGREE_BUILDERS[name]
    for bad in (4.0, np.float64(4.0), 4.5):
        with pytest.raises(TypeError, match=f"grid degree must be an integer, got .*{float(bad)!r}"):
            build(bad)
    with pytest.raises(TypeError, match="grid degree must be an integer, got True$"):
        build(True)  # though operator.index(True) is 1
    build(np.int64(4))  # numpy integers are integers


@pytest.mark.parametrize("name", DEGREE_BUILDERS)
def test_fractional_degree_below_range_is_a_type_error(name):
    # the type is checked before the range, so a fraction below the smallest
    # degree is refused as a non-integer, not as out of range
    for bad in (0.5, 1.5, 2.5, 3.5, True):
        with pytest.raises(TypeError, match="grid degree must be an integer"):
            DEGREE_BUILDERS[name](bad)


def test_node_vector_refuses_a_float_degree():
    # the degree is read off the value count, so it is never a float
    f = chebgreen.NodeVector(np.zeros(5))
    assert f.grid_degree == 4 and type(f.grid_degree) is int


@pytest.mark.parametrize("name", RANGE_BUILDERS)
def test_degree_below_the_least_names_the_least_and_the_degree(name):
    build, least = RANGE_BUILDERS[name], LEAST_DEGREE[name]
    with pytest.raises(ValueError, match=f"^grid degree must be >= {least}, got {least - 1}$"):
        build(least - 1)
    build(least)


def test_degree_range_checks_live_in_the_core_guard():
    # every range check on a grid degree goes through core._grid_degree, so
    # no other module spells out the policy's message
    for path in MODULES:
        if path.name != "core.py":
            text = path.read_text()
            for phrase in ("needs grid degree", "grid degree must be >="):
                assert phrase not in text, f"{path.name} checks a degree range: {phrase!r}"


# the functions and carriers that take raw arrays, each with a valid input
# and a way to put a bad value into it: the GreenMatrix carrier and the two
# test references. dct1 is left unchecked on purpose (it runs on the
# matrix-free hot path, whose input is an already checked NodeVector)
def _poison(a, bad):
    a = np.array(a, dtype=np.float64)
    a.flat[a.size // 2] = bad
    return a


RAW_ARRAY_INPUTS = {
    "barycentric_weights_general":
        lambda bad: barycentric_weights_general(_poison(chebgreen.cgl_points(4), bad)),
    "dct1_naive": lambda bad: dct1_naive(_poison(np.ones(5), bad)),
    "GreenMatrix": lambda bad: chebgreen.GreenMatrix(_poison(np.zeros((5, 5)), bad)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", RAW_ARRAY_INPUTS)
def test_raw_array_inputs_refuse_non_finite_values(name, bad):
    RAW_ARRAY_INPUTS[name](1.0 / 3.0)  # a finite value passes
    with pytest.raises(ValueError, match="must be finite; got NaN or infinite values"):
        RAW_ARRAY_INPUTS[name](bad)


# every public function that takes a NodeVector; a bare array or list of
# the same values carries no grid degree, so it must be refused by type
_VALUES = np.array([1.0, 0.5, 0.25, 0.0, 0.0])
VECTOR_INPUTS = {
    "apply_green_matrix_free": chebgreen.apply_green_matrix_free,
    "solve_stripped": chebgreen.solve_stripped,
    "solve_bvp": lambda v: chebgreen.solve_bvp(v, "dense-green"),
}


@pytest.mark.parametrize("given", ["ndarray", "list"])
@pytest.mark.parametrize("name", VECTOR_INPUTS)
def test_vector_inputs_refuse_a_wrong_type_naming_the_expected_class(name, given):
    call = VECTOR_INPUTS[name]
    call(chebgreen.NodeVector(_VALUES))  # a NodeVector passes
    bad = _VALUES.copy() if given == "ndarray" else _VALUES.tolist()
    with pytest.raises(TypeError, match=f"^{name} expects a NodeVector, got {given}$"):
        call(bad)


# functions that only the verify checks use; the parity fold lives in
# operators, since the stripped solve uses it too
CHECK_HELPERS = ("_identity_gap", "_pair_weights", "_identity_deviation", "_boundary_basis",
                 "_gram_blocks", "diff2_bc_matrix", "green_bc_matrix")


def test_every_verify_check_lives_in_cli():
    # a check's deviation sits beside its degree range and tolerance in
    # cli._CHECKS, and the parity-block helpers and the bc-inverse operators
    # that only the checks use live there with them
    cli = importlib.import_module("chebgreen.cli")
    for name, (_, _, deviation, _) in cli._CHECKS.items():
        assert deviation.__module__ == "chebgreen.cli", name
    homes = {(path.stem, top.name) for path in MODULES
             for top in ast.parse(path.read_text()).body
             if isinstance(top, ast.FunctionDef) and top.name in CHECK_HELPERS}
    assert homes == {("cli", name) for name in CHECK_HELPERS}


# the top-level functions and classes that no code in src/ names, each with
# its reason; every other one must have a caller there.  perfbench/tracer.py's
# SITES wraps the first table's by attribute, and ROADMAP item 7 retires them
# once item 1 or 13 lands
TRACER_PINNED = {
    ("operators", "diff_matrix"): "SITES['operators'] wraps it",
    ("operators", "diff2_matrix"): "SITES['operators'] and SITES['quadrature'] wrap it",
    ("operators", "reinterp_matrix"): "SITES['operators'] and SITES['quadrature'] wrap it",
    ("operators", "extension_matrix"): "SITES['operators'] wraps it; the README example uses it",
    ("quadrature", "consistent_gram_matrix"): "SITES['quadrature'] wraps it",
}


def test_every_uncalled_function_or_class_is_tabled_with_its_reason():
    # a name counts as called when src/ names it outside its own definition:
    # imports, __all__ strings and recursive calls do not count.  A tabled
    # name that gains a caller leaves its table
    defs, named = set(), set()
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.add((path.stem, top.name))
                used.discard(top.name)
            named |= used
    uncalled = {(module, name) for module, name in defs if name not in named}
    assert uncalled == TRACER_PINNED.keys()
    assert all(TRACER_PINNED.values())
