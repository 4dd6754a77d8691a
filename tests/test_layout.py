"""The package holds one copy of each thing a command runs: every public
function and class in src/taskaffinity is referenced from the package, the
scripts or the benchmark, not only from the tests.  Its modules import each
other only along the edges listed in IMPORTS."""

import ast
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "taskaffinity")
CALLERS = [PACKAGE, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench")]

# module -> the package modules it imports; an edge not listed here is a new
# dependency to justify, and a listed edge that is gone should leave the table
IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"config", "nnet", "pipeline", "seeding", "tasks", "theorem"},
    "config": {"nnet", "pipeline", "seeding", "tasks", "theorem"},
    "fisher": set(),
    "matching": set(),
    "nnet": set(),
    "pipeline": {"fisher", "matching", "nnet", "seeding", "tasks"},
    "seeding": set(),
    "tasks": {"nnet", "seeding"},
    "theorem": {"fisher"},
}


def _parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _python_files(directory):
    for dirpath, _, files in os.walk(directory):
        yield from (os.path.join(dirpath, f) for f in sorted(files) if f.endswith(".py"))


def _names(node):
    """Every identifier node uses: names, attributes and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _unused(kind):
    """package:name of each public top-level `kind` node in the package that
    nothing in CALLERS names, its own body aside."""
    used = Counter()
    for directory in CALLERS:
        for path in _python_files(directory):
            used += _names(_parse(path))
    unused = []
    for path in _python_files(PACKAGE):
        for node in _parse(path).body:
            if isinstance(node, kind) and not node.name.startswith("_"):
                # a definition's uses of its own name do not count
                if used[node.name] - _names(node)[node.name] <= 0:
                    unused.append(f"{os.path.basename(path)}:{node.name}")
    return unused


def test_every_public_function_has_a_caller_outside_the_tests():
    assert _unused(ast.FunctionDef) == []


def test_every_public_class_has_a_user_outside_the_tests():
    assert _unused(ast.ClassDef) == []


def _package_imports(tree):
    """The package modules a module's import statements name, at any depth."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            if n.level == 0 and (n.module or "").split(".")[0] != "taskaffinity":
                continue
            module = n.module if n.level else n.module.partition(".")[2]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Import):
            for alias in n.names:
                top, _, rest = alias.name.partition(".")
                if top == "taskaffinity" and rest:
                    out.add(rest.split(".")[0])
    return out


def test_package_imports_follow_the_table():
    graph = {
        os.path.basename(path)[:-3]: _package_imports(_parse(path))
        for path in _python_files(PACKAGE)
    }
    assert graph == IMPORTS
