"""Source hygiene: no private module-level name in ``src/periodickf`` is
left defined but unread, every class member there is read as an
attribute somewhere in the project's Python files, and no module but
``linalg`` holds a ``ContextVar``."""

import ast

from conftest import ROOT

PACKAGE = ROOT / "src" / "periodickf"
PYTHON_DIRS = [ROOT / name for name in ("src", "tests", "demos", "perfbench")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """Module-level private functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if _is_private(name))


def _reads(tree: ast.Module):
    """Names loaded, attributes read and names imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in read]
    assert unread == []


def _class_members(tree: ast.Module):
    """(class, member) for each non-dunder method, property and annotated
    field of every class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name


def test_every_class_member_is_read():
    read = {node.attr
            for folder in PYTHON_DIRS for path in folder.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}: {cls}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in _class_members(
                  ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert unread == []


def test_context_variables_only_in_linalg():
    # hidden per-call state stays out: the one ContextVar is linalg's
    # active flop counter, and a start passes what it decided as values
    holders = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "ContextVar" in path.read_text(encoding="utf-8")]
    assert holders == ["linalg.py"]


# The per-step path: no function here may call a ``numpy.linalg``
# wrapper, whose dispatch and checks would be paid on every filter step,
# nor test finiteness by ``np.isfinite(...).all()``, whose ``ndarray.all``
# dispatches through Python (``np.count_nonzero`` counts in C).
# (``ChandrasekharState._m_singular_values`` takes its SVD once per state
# and is not listed.)
PER_STEP = {
    "linalg.py": ["_symmetrized", "_pd_gate", "_require_finite",
                  "spd_factor", "_solve", "sym_solve", "_sym_solve"],
    "kalman.py": ["_covariance_update"],
    "chandrasekhar.py": ["_step"],
    "filtering.py": ["_KalmanEngine.step", "_ChandEngine.step",
                     "_ChandEngine._absorbed", "_negligible", "filter_series",
                     "_gain_pass", "_state_pass", "_band_pass"],
}


def _functions(tree: ast.Module):
    """(qualified name, node) for each module-level function and each
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _numpy_linalg_calls(node: ast.AST):
    """The ``X`` of every ``np.linalg.X(...)`` or ``numpy.linalg.X(...)``
    call inside ``node``."""
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            continue
        owner = call.func.value
        if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")):
            yield call.func.attr


def test_per_step_path_calls_no_numpy_linalg():
    found = []
    for module, names in PER_STEP.items():
        functions = dict(_functions(
            ast.parse((PACKAGE / module).read_text(encoding="utf-8"))))
        for name in names:
            assert name in functions, f"{module}: {name} not found"
            found += [f"{module}: {name} calls np.linalg.{attr}"
                      for attr in _numpy_linalg_calls(functions[name])]
    assert found == []


def _isfinite_all_calls(node: ast.AST):
    """The line of every ``.all()`` called on an ``np.isfinite(...)``
    or ``numpy.isfinite(...)`` call inside ``node``."""
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "all"):
            continue
        inner = call.func.value
        if (isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "isfinite"
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id in ("np", "numpy")):
            yield call.lineno


def test_per_step_path_tests_finiteness_without_ndarray_all():
    found = []
    for module, names in PER_STEP.items():
        functions = dict(_functions(
            ast.parse((PACKAGE / module).read_text(encoding="utf-8"))))
        for name in names:
            found += [f"{module}:{line}: {name} calls np.isfinite(...).all()"
                      for line in _isfinite_all_calls(functions[name])]
    assert found == []


def test_isfinite_all_guard_sees_the_pattern():
    tree = ast.parse("def f(a):\n    return np.isfinite(a).all()\n"
                     "def g(a):\n    return np.count_nonzero("
                     "np.isfinite(a)) == a.size\n")
    functions = dict(_functions(tree))
    assert list(_isfinite_all_calls(functions["f"])) == [2]
    assert list(_isfinite_all_calls(functions["g"])) == []
