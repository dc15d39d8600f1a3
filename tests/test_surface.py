"""Every public name and every option of the library has a caller that is not a test.

The callers are the package itself, the benchmark (without its tests) and the
scripts; tests, demos and the README do not count, so a wrapper or an option
that only they use fails here instead of growing the library's surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfcring"


def _caller_files():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    files += [p for p in (ROOT / "perfbench").rglob("*.py")
              if "tests" not in p.relative_to(ROOT / "perfbench").parts]
    return sorted(files)


def _parse():
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in _caller_files()}


def _definitions(trees):
    """(path, node, qualified name, is_method) of every function, method and
    class in the package."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node, f"{path.stem}.{node.name}", False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item, f"{path.stem}.{node.name}.{item.name}", True


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _within(node, path, where):
    return where[0] == path and node.lineno <= where[1] <= node.end_lineno


def _unreferenced(trees):
    """Public functions, classes and methods that no line outside their definition names."""
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if _name(node) is not None:
                refs.setdefault(_name(node), []).append((path, node.lineno))
    return sorted(
        qualname for path, node, qualname, _ in _definitions(trees)
        if not node.name.startswith("_")
        and all(_within(node, path, where) for where in refs.get(node.name, ())))


def _unpassed(trees):
    """Defaulted parameters that no call passes by keyword, by position or by * or **."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)
    missing = []
    for _, node, qualname, is_method in _definitions(trees):
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        static = any(_name(d) == "staticmethod" for d in node.decorator_list)
        positional = [*args.posonlyargs, *args.args][1 if is_method and not static else 0:]
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        # a class's __init__ is called by the class's name
        callee = qualname.split(".")[-2] if node.name == "__init__" else node.name
        for index, arg in defaulted:
            if not any(any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg in (arg, None) for k in call.keywords)
                       or index is not None and len(call.args) > index
                       for call in calls.get(callee, ())):
                missing.append(f"{qualname}({arg}=)")
    return sorted(missing)


def test_every_public_name_has_a_caller_outside_tests():
    names = _unreferenced(_parse())
    assert not names, names


def test_every_option_is_passed_by_a_caller_outside_tests():
    options = _unpassed(_parse())
    assert not options, options
