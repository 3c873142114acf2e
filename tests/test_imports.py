"""The package's modules import each other at module level, without cycles.

A cycle can be hidden by moving one of its imports into a function body, so
such imports count as edges of the graph, and any function-level import of
a package module fails on its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "paneitzlab"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _targets(node):
    """Package modules a relative ``from`` import names, else nothing."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(tree):
    """``(target, line, inside a function)`` for each package import."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            found.extend((t, child.lineno, in_function) for t in _targets(child))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


IMPORTS = {name: _imports(ast.parse(path.read_text())) for name, path in MODULES.items()}


def _cycle(graph):
    """One import cycle as a list of module names, or None."""
    state = {}

    def dfs(name, stack):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                found = dfs(dep, stack + [dep])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            found = dfs(name, [name])
            if found:
                return found
    return None


def test_import_graph_has_no_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None
    graph = {name: {t for t, _, _ in found} for name, found in IMPORTS.items()}
    assert graph["cli"] >= {"__init__", "conditions", "mountain_pass"}
    cycle = _cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_no_function_imports_a_package_module():
    lazy = {f"{name}.py:{line}" for name, found in IMPORTS.items()
            for _, line, in_function in found if in_function}
    assert lazy == set()


def _unused_imports(tree):
    """Names bound by the module's imports that it never reads or exports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return {name: line for name, line in bound.items() if name not in used}


def test_every_import_is_used():
    assert _unused_imports(ast.parse("import os\nfrom a import b as c\n")) == {"os": 1, "c": 2}
    assert _unused_imports(ast.parse("import os.path\n__all__ = ['x']\nos.sep\n")) == {}
    unused = {f"{name}.py:{line} {imported}"
              for name, path in MODULES.items() if name != "__init__"
              for imported, line in _unused_imports(ast.parse(path.read_text())).items()}
    assert unused == set()
