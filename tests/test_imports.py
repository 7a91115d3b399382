"""The package's modules import one another without a cycle. Imports made
inside a function count too: a lazy import hides a cycle from the import
system, not from the design."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mixedvol"


def _sibling_imports(path: Path) -> set[str]:
    """The package modules a module imports by `from .x import ...` or
    `from . import x`, at module level or in any function body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for n in sorted(graph.get(m, ())):
            found = visit(n)
            if found:
                return found
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        found = visit(m)
        if found:
            return found
    return None


def test_cycle_finder_sees_a_lazy_import_cycle(tmp_path):
    lazy = tmp_path / "lazy.py"
    lazy.write_text("from . import a\n\n\ndef f():\n    from .b.c import d\n")
    assert _sibling_imports(lazy) == {"a", "b"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_package_imports_form_no_cycle():
    graph = {p.stem: _sibling_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert "bodies" in graph["measures"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))
