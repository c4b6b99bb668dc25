"""The public surface: every exported name has a caller outside the tests,
and every `kgo` path the benchmark reads resolves.

A caller is a read of the name in the package, the demos, the benchmark or
the acceptance suite, outside the function or class that defines it. Unit
tests do not count: a helper that only its own tests read is dead code.
"""

import ast
from pathlib import Path

import kgo

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "kgo" / "__init__.py"
CALLERS = [*sorted((ROOT / "src" / "kgo").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# Exported without a caller, and why each stays.
UNCALLED = {
    "adjusted_probability": "the paper's renormalized probability variants, kept for evaluation",
    "scalar_value_roots": "the paper's root-search value, a cross-check of `value`",
    "stationarity_residual": "the reference the tests check each trace row's stationarity against",
}


def exported() -> set:
    return {alias.asname or alias.name for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def references(tree) -> set:
    """Names a module reads, each outside the def or class of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name):
            found.update({node.id} - owners)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - owners)
        elif isinstance(node, ast.alias):
            found.update({node.asname or node.name} - owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    used = set().union(*(references(ast.parse(path.read_text()))
                         for path in CALLERS if path != INIT))
    names = exported()
    assert sorted(names - used - UNCALLED.keys()) == []
    # The exceptions stay exported, and leave the list once they gain a caller.
    assert UNCALLED.keys() <= names
    assert sorted(UNCALLED.keys() & used) == []


def dotted(node):
    """`a.b.c` of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def kgo_paths(tree) -> set:
    """`kgo.<name>...` paths a module reads: attribute chains through a `kgo`
    (`kgo.fit`, `bench.kgo.prepare`), imports from kgo, and the
    `(kgo.<module>, "<attribute>")` pairs of a patched binding."""
    paths = set()
    for node in ast.walk(tree):
        chain = None
        if isinstance(node, ast.Attribute):
            chain = dotted(node)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            target, attr = node.elts
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str) and dotted(target):
                chain = f"{dotted(target)}.{attr.value}"
        elif isinstance(node, ast.ImportFrom) and node.module == "kgo":
            paths.update(f"kgo.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names if alias.name.startswith("kgo."))
        if chain is not None and "kgo" in chain.split("."):
            parts = chain.split(".")
            paths.add(".".join(parts[parts.index("kgo"):]))
    return paths


def test_benchmark_reads_resolve():
    paths = set().union(*(kgo_paths(ast.parse(path.read_text()))
                          for path in sorted((ROOT / "bench").glob("*.py"))))
    assert {"kgo.fit", "kgo.solver.sym_eig", "kgo.model.evaluate_basis"} <= paths
    missing = []
    for path in sorted(paths):
        obj = kgo
        for part in path.split(".")[1:]:
            if not hasattr(obj, part):
                missing.append(path)
                break
            obj = getattr(obj, part)
    assert missing == []
