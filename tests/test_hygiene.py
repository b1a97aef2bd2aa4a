"""Source hygiene of the package, checked on the syntax tree: no module
imports a name it does not use, every name a module lists in ``__all__`` is
bound there (the benchmark's tracer looks the functions up by ``__all__``,
so a stale entry breaks it), every defaulted parameter of a function or
method is passed by some call in the package or the tests, every parameter
is read in its function's body, and every annotated class field is read by
some attribute access there."""

import ast
from pathlib import Path

import pytest

import latticefronts

PACKAGE = Path(latticefronts.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _module_bindings(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    return bound


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_names(tree))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_are_bound(path):
    tree = _tree(path)
    missing = set(_all_names(tree)) - _module_bindings(tree)
    assert not missing, f"{path.name}: __all__ names not bound {sorted(missing)}"


def _calls() -> list[ast.Call]:
    """Every call in the package and the tests."""
    paths = MODULES + sorted(TESTS.glob("*.py"))
    return [node for path in paths for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)]


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes the parameter by keyword, by **kwargs or by
    position; an unpacked *args passes only the positions written before it,
    since its length is not known from the source."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    written = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        written += 1
    return position is not None and written > position


def _options(func: ast.FunctionDef, bound: bool) -> list[tuple[int | None, str]]:
    """(position or None if keyword-only, name) of each defaulted parameter;
    a method's positions count from the first parameter after self/cls."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    skip = 1 if bound else 0
    opts = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    opts += [(None, a.arg) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
             if d is not None]
    return opts


def _functions(tree: ast.Module):
    """(name a call uses, whether self/cls is bound, node) of every function
    and method, nested ones included; ``__init__`` is called by its class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node not in methods:
            yield node.name, False, node
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        name = methods[node] if node.name == "__init__" else node.name
        yield name, not static, node


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_option_is_set_by_a_caller(path):
    """A defaulted parameter that no call in the package or the tests passes
    is a constant in disguise: each such option doubles the configurations
    the tests would have to cover."""
    calls = _calls()
    unset = []
    for name, bound, node in _functions(_tree(path)):
        mine = [c for c in calls if _callee(c) == name]
        unset += [f"{name}({param})" for position, param in _options(node, bound)
                  if not any(_passes(c, position, param) for c in mine)]
    assert not unset, f"{path.name}: options no caller sets {unset}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    """A parameter its body never reads changes nothing, yet every caller
    must still pass it."""
    unread = []
    for _name, _bound, node in _functions(_tree(path)):
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}({p})" for p in params if p not in read]
    assert not unread, f"{path.name}: parameters never read {unread}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_field_is_read(path):
    """An annotated class field that no attribute access in the package or
    the tests reads is state that every constructor call must still fill."""
    read = {node.attr for p in MODULES + sorted(TESTS.glob("*.py"))
            for node in ast.walk(_tree(p))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{item.target.id}"
              for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert not unread, f"{path.name}: fields nothing reads {unread}"


def test_every_config_field_is_read():
    """A config field that no code reads is an option that changes nothing:
    every field of the schema and every key of the explicit operator is read
    by name, as a subscript, in cli.py outside the tables that declare them."""
    from latticefronts.cli import OPERATOR, SCHEMA
    tree = _tree(PACKAGE / "cli.py")
    tables = [node for node in tree.body if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in ("SCHEMA", "OPERATOR") for t in node.targets)]
    inside = {id(n) for table in tables for n in ast.walk(table)}
    read = {n.slice.value for n in ast.walk(tree)
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
            and id(n) not in inside}
    fields = [(f"{block}.{field}", field) for block, fields in SCHEMA.items()
              for field in fields]
    fields += [(f"hyperbolic.operator.{key}", key) for key in OPERATOR]
    unread = [path for path, name in fields if name not in read]
    assert not unread, f"config fields nothing reads {unread}"
