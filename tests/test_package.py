"""The package's public export list and its modules' imports."""

import ast
from pathlib import Path

import qhyp


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
