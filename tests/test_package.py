"""The package's public export list and its modules' imports."""

import ast
import functools
import inspect
import re
import tokenize
from pathlib import Path

import qhyp
from qhyp import tolerances, verify


def test_all_names_resolve_once():
    names = qhyp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qhyp, name)]
    assert missing == []


def test_no_unused_imports():
    # every name a module imports at top level is referenced in the module;
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted(Path(qhyp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_definition_is_reached_from_the_library():
    # every function and class defined in the package (dunders aside) is
    # referenced by name in some module other than __init__.py, and every
    # method as an attribute (x.name), there or in the benchmark, which calls
    # the library too; so no spelling is kept alive by its export, by tests
    # alone, or by a local variable of the same name
    root = Path(qhyp.__file__).parent
    names, attributes, defined = set(), set(), []
    for path in sorted(root.glob("*.py")) + sorted((root.parents[1] / "bench").glob("*.py")):
        tree, package = ast.parse(path.read_text()), path.parent == root
        nodes = [] if path.name == "__init__.py" else list(ast.walk(tree))
        attributes |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {node.id for node in nodes if package and isinstance(node, ast.Name)}
        scopes = [(tree.body, "")] if package else []
        while scopes:
            body, prefix = scopes.pop()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((f"{path.name}: {prefix}{node.name}", node.name, prefix))
                    if isinstance(node, ast.ClassDef):
                        scopes.append((node.body, f"{node.name}."))
    unreached = [where for where, name, prefix in defined
                 if not (name in attributes or not prefix and name in names)
                 and not re.fullmatch("__.*__", name)]
    assert unreached == []


def test_every_parameter_is_read():
    # every parameter of every function is read in that function's body;
    # self, cls and _-prefixed names are exempt
    unread = []
    for path in sorted(Path(qhyp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}: {fn.name}({a.arg})" for a in params
                       if a.arg not in read and a.arg not in ("self", "cls")
                       and not a.arg.startswith("_")]
    assert unread == []


def test_bench_layer_spans_name_qhyp_functions():
    # the benchmark's tracer reads each per-layer metric off the span of one
    # qhyp function; a renamed function would read 0 without an error
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    tree = ast.parse(path.read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYER_SPANS"])
    assert spans
    unresolved = []
    for _, target in spans.values():
        try:
            obj = functools.reduce(getattr, target.split("."), qhyp)
        except AttributeError:
            unresolved.append(target)
            continue
        if not (inspect.isfunction(obj) and obj.__module__ == f"qhyp.{target.split('.')[0]}"):
            unresolved.append(target)
    assert unresolved == []


def test_thresholds_live_in_the_table():
    # a number in scientific notation is a threshold, and every threshold
    # is named in tolerances.py; verify.py keeps its own acceptance bounds,
    # which judge the thresholds from outside
    found = []
    for path in sorted(Path(qhyp.__file__).parent.glob("*.py")):
        if path.name in ("tolerances.py", "verify.py"):
            continue
        with path.open() as fh:
            found += [f"{path.name}:{tok.start[0]}: {tok.string}"
                      for tok in tokenize.generate_tokens(fh.readline)
                      if tok.type == tokenize.NUMBER and re.search("[eE]", tok.string)]
    assert found == []


def test_numpy_closeness_tests_name_both_thresholds():
    # np.allclose and np.isclose bring rtol = 1e-5 and atol = 1e-8 of their
    # own, thresholds outside the table: every call passes both
    found = []
    for path in sorted(Path(qhyp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in ("allclose", "isclose")):
                positional = ("a", "b", "rtol", "atol")[:len(node.args)]
                given = {k.arg for k in node.keywords} | set(positional)
                if not {"rtol", "atol"} <= given:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


#: every threshold at its value; moving one is a visible edit here too, and
#: speed is never bought by loosening a tolerance
PINNED = {
    "DEFAULT_TOL": 1e-9,
    "DECIDER_TOL": 1e-7,
    "WIRE_TOL": 1e-8,
    "CLASSIFY_TOL_FLOOR": 1e-9,
    "DECIDER_TOL_FLOOR": 1e-8,
    "CLUSTER_RTOL": 1e-7,
    "RANK_RTOL": 1e-8,
    "REAL_CLASS_RTOL": 1e-9,
    "BASIS_RANK_RTOL": 1e-10,
    "FORM_DEGENERACY_RTOL": 1e-10,
    "CENTRALIZER_RTOL": 1e-7,
    "J_STRUCTURE_RTOL": 1e-9,
    "NEWTON_STEP_RTOL": 1e-15,
    "NEWTON_MAX_STEPS": 50,
    "CHAR_COEFF_TOL": 1e-9,
    "UNIT_MODULUS_TOL": 1e-12,
    "HYPERBOLIC_MODULUS_TOL": 1e-8,
    "GENERATED_MEMBER_TOL": 1e-7,
    "FRAME_COND_MAX": 1e6,
    "CLASS_MATCH_TOL": 1e-7,
    "TRACE_RTOL": 1e-7,
    "SPAN_RTOL": 1e-7,
    "REASSEMBLY_RTOL": 1e-8,
    "FIXED_SET_RANK_ATOL": 1e-8,
    "NORMAL_FORM_RTOL": 1e-6,
    "INTERTWINER_RTOL": 1e-7,
    "GROUP_MULTIPLE_RTOL": 1e-5,
    "DEGENERACY_FACTOR": 1e3,
    "GAUGE_FLOOR_FACTOR": 1e3,
    "PATTERN_TOL": 1e-8,
    "WITNESS_MEMBER_TOL": 1e-8,
    "QUADRUPLE_RELATION_TOL": 1e-8,
    "ANGLE_RANGE_TOL": 1e-9,
    "ANGLE_ZERO_TOL": 1e-9,
    "DISTANCE_FLOOR_TOL": 1e-9,
    "ROTATION_ZERO_RTOL": 1e-9,
    "SLOT_IDENTITY_RTOL": 1e-7,
    "SLOT_REDUNDANCY_RTOL": 1e-7,
    "BASE_MODULUS_TOL": 1e-9,
    "ROUND_TRIP_TOL": 1e-7,
    "DIVISION_FLOOR": 1e-300,
}


def test_tolerance_table_is_pinned():
    table = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert table == PINNED


#: verify.py's acceptance bounds at their values: no criterion's bound is
#: loosened without an edit here
VERIFY_PINNED = {
    "DRIFT_BOUND": 1e-8,
    "IMAG_BOUND": 1e-10,
    "PALINDROME_BOUND": 1e-9,
    "RELATION_BOUND": 1e-8,
    "ANGLE_BOUND": 1e-9,
    "RESIDUAL_BOUND": 1e-7,
    "ORACLE_GAP": 0.25,
}


def test_verify_bounds_are_named_and_pinned():
    # every bound handed to the trial harness is a pinned module-level name
    tree = ast.parse(Path(verify.__file__).read_text())
    bounds = [node.args[2] for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "check"]
    assert bounds and all(isinstance(b, ast.Name) and b.id in VERIFY_PINNED for b in bounds)
    table = {name: value for name, value in vars(verify).items()
             if name.isupper() and isinstance(value, float)}
    assert table == VERIFY_PINNED


def test_imports_sit_at_module_level():
    # an import inside a function hides a dependency; cli.py imports per
    # command, so that a fresh process loads only what its command needs, and
    # profile's import of semi_normalize breaks a real cycle (gram imports
    # invariants)
    found = []
    for path in sorted(Path(qhyp.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}: {fn.name}: {ast.unparse(node)}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == ["invariants.py: profile: from .gram import semi_normalize"]
