"""The package's modules import one another without a cycle. Imports made
inside a function count too: a lazy import hides a cycle from the import
system, not from the design. Every public module-level function and class,
and every public method and property of a class, has a caller in the
library or the benchmark, not only in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixedvol"

# the documented Minkowski-sum primitive, kept although only tests call it
TEST_ONLY_ALLOWED = {"minkowski_sum"}


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


def _nodes(tree: ast.AST, skip: ast.AST | None = None):
    """The nodes of a syntax tree outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _attributes(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names a syntax tree reads as attributes or string constants (the
    benchmark's tracer names the functions it wraps by string), outside the
    subtree skip."""
    found = set()
    for node in _nodes(tree, skip):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names a syntax tree reads, as names, attributes, imported names
    or string constants, outside the subtree skip."""
    found = _attributes(tree, skip)
    for node in _nodes(tree, skip):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def _uncalled_public_names(root: Path) -> list[str]:
    """module.name for each public module-level def or class of the package
    that nothing in the package (outside its own definition and
    __init__.py) and nothing in bench/*.py refers to."""
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted((root / "src" / "mixedvol").glob("*.py"))
               if p.name != "__init__.py"}
    bench = set().union(*(_names(ast.parse(p.read_text(), filename=str(p)))
                          for p in sorted((root / "bench").glob("*.py"))))
    return [f"{stem}.{node.name}"
            for stem, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in bench | TEST_ONLY_ALLOWED
            and not any(node.name in _names(t, skip=node)
                        for t in modules.values())]


def test_guard_sees_a_test_only_function(tmp_path):
    pkg, bench = tmp_path / "src" / "mixedvol", tmp_path / "bench"
    pkg.mkdir(parents=True)
    bench.mkdir()
    (pkg / "__init__.py").write_text("from .a import lonely, used, traced\n")
    (pkg / "a.py").write_text(
        "def lonely():\n    return lonely\n\n\ndef used():\n    pass\n\n\n"
        "def traced():\n    pass\n\n\nclass _Private:\n    pass\n")
    (pkg / "b.py").write_text("from .a import used\n")
    (bench / "spans.py").write_text('LAYERS = {"a": ("traced",)}\n')
    assert _uncalled_public_names(tmp_path) == ["a.lonely"]


def test_every_public_function_has_a_library_or_benchmark_caller():
    assert _uncalled_public_names(ROOT) == []


def _unreferenced_public_members(root: Path) -> list[str]:
    """module.Class.member for each public method or property of a package
    class that nothing in the package (outside its own definition) and
    nothing in bench/*.py refers to as an attribute or a string; dunders
    are exempt."""
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted((root / "src" / "mixedvol").glob("*.py"))}
    bench = set().union(*(_attributes(ast.parse(p.read_text(), filename=str(p)))
                          for p in sorted((root / "bench").glob("*.py"))))
    return [f"{stem}.{cls.name}.{node.name}"
            for stem, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and node.name not in bench
            and not any(node.name in _attributes(t, skip=node)
                        for t in modules.values())]


def test_member_guard_sees_a_test_only_method(tmp_path):
    pkg, bench = tmp_path / "src" / "mixedvol", tmp_path / "bench"
    pkg.mkdir(parents=True)
    bench.mkdir()
    (pkg / "a.py").write_text(
        "class P:\n    def lonely(self):\n        return self.lonely\n\n"
        "    def used(self):\n        pass\n\n"
        "    @property\n    def traced(self):\n        pass\n\n"
        "    def named(self):\n        pass\n\n"
        "    def __add__(self, other):\n        pass\n\n\n"
        "def f(p, named):\n    return p.used(), named\n")
    (bench / "spans.py").write_text('LAYERS = {"a": ("traced",)}\n')
    # a bare name is not a reference to a member: only attributes and
    # strings are
    assert _unreferenced_public_members(tmp_path) == ["a.P.lonely", "a.P.named"]


def test_every_public_member_has_a_library_or_benchmark_reader():
    assert _unreferenced_public_members(ROOT) == []
