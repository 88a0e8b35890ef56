"""The package's modules import one another without a cycle.

Each module of src/triphoton (not __init__) is a node, and each relative
import in it an edge, wherever it stands: at the top of the module or inside
a function.  A cycle would mean that one layer needs another that needs it
back, so the graph must be acyclic.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "triphoton"


def _import_graph():
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name, path in modules.items():
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .x import y" names module x; "from . import y", module y
                targets = [node.module] if node.module else [a.name for a in node.names]
                deps.update(t for t in targets if t in modules)
        graph[name] = deps
    return graph


def _cycle(graph):
    """One cycle of graph as a list of modules, or None."""
    state = {}   # absent: unseen, 1: on the current path, 2: done

    def visit(node, path):
        state[node] = 1
        for dep in sorted(graph[node]):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[node] = 2
        return None

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def test_module_imports_are_acyclic():
    graph = _import_graph()
    # the graph holds an import inside a function (cmd_selftest's) and a
    # "from . import x", and the search finds a cycle where there is one
    assert "selftest" in graph["cli"] and "io_formats" in graph["selftest"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    cycle = _cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
