"""Import structure of the package, read from the sources with ``ast`` and
observed in a fresh interpreter."""

import ast
import os
import re
import subprocess
import sys
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


def module_level_imports(tree: ast.Module) -> list:
    """Names imported by ``tree`` outside any function body: what loading the module runs."""
    in_functions = {id(inner) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for inner in ast.walk(node)}
    names = []
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
    return names


def test_no_module_imports_scipy_when_it_loads():
    # SciPy's linear algebra is most of an explicit run's memory; only the
    # code that solves a system imports it, inside the function that solves.
    loaded = {path.stem: [name for name in module_level_imports(ast.parse(path.read_text()))
                          if name.split(".")[0] == "scipy"]
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {"ugks", "reference"} <= set(loaded)
    assert {stem: names for stem, names in loaded.items() if names} == {}


SCIPY_PROBE = """
import sys

import ugks1d
import ugks1d.cli
from ugks1d.experiments import builtin_spec, run
from ugks1d.grid import build_gauss_legendre

nodes = build_gauss_legendre(16).nodes
example = ["example", "ex5", "--cells", "25", "--out", sys.argv[1]]
seen = {"import": "scipy.linalg" in sys.modules}
for name, argv in (("ugks", []), ("mc_limited", ["--second-order"]), ("upwind", ["--scheme", "upwind"])):
    assert ugks1d.cli.main(example + argv) == 0
    seen[name] = "scipy.linalg" in sys.modules
run(builtin_spec("ex5", collision="penalized", kernel_table=0.5 + 0.25 * nodes[:, None] * nodes),
    cells=25)
seen["penalized"] = "scipy.linalg" in sys.modules
assert ugks1d.cli.main(example + ["--implicit-diffusion"]) == 0
seen["ugks_id"] = "scipy.linalg" in sys.modules
print(seen)
"""


def test_only_an_implicit_plan_loads_scipy_linalg(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "ex5")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = ast.literal_eval(proc.stdout.splitlines()[-1])
    # The ugks_id run is the positive control: the probe does see SciPy load.
    assert seen == {"import": False, "ugks": False, "mc_limited": False, "upwind": False,
                    "penalized": False, "ugks_id": True}


REPO = PACKAGE.parent.parent


def public_definitions(tree: ast.Module) -> set:
    """Names a module defines at its top level with a def, class or assignment, not private."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_has_a_user_outside_the_tests():
    # Nothing public exists only to be tested: a name counts as used when the
    # package reads it (re-exports from __init__.py do not count), or when the
    # benchmark, the README or the packaging metadata names it.
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= public_definitions(tree)
        if path.name != "__init__.py":
            used.update(node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    texts = [p.read_text() for p in sorted((REPO / "benchmarks").glob("*")) if p.is_file()]
    texts += [(REPO / name).read_text() for name in ("README.md", "pyproject.toml")]
    words = set(re.findall(r"\w+", "\n".join(texts)))
    assert defined, "no public definitions found"
    assert sorted(defined - used - words) == []
