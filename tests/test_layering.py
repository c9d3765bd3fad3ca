"""Import structure of the package, read from the sources with ``ast``."""

import ast
from pathlib import Path

import ugks1d

PACKAGE = Path(ugks1d.__file__).parent


def import_graph() -> dict:
    """{module: set of package modules it imports}, function-level imports included."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ugks1d."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ugks1d."))
        graph[path.stem] = deps
    return graph


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert {"ugks", "reference", "grid", "analysis", "experiments"} <= set(graph)
    done, active = set(), []

    def visit(module):
        if module in active:
            raise AssertionError("import cycle: " + " -> ".join(active[active.index(module):] + [module]))
        if module in done:
            return
        active.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_solver_does_not_import_the_oracles():
    assert "reference" not in import_graph()["ugks"]
