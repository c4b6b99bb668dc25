"""The public surface: every exported name has a caller outside the tests,
every option of an export is set by some call, every field of a result
record is read, and every `kgo` path the benchmark reads resolves.

A caller is a read of the name in the package, the demos, the benchmark or
the acceptance suite, outside the function or class that defines it. Unit
tests do not count: a helper that only its own tests read is dead code, and
so is an option that only its own tests set. The few listed exceptions are
references the tests check against, and each must have a test that reads it.
"""

import ast
import dataclasses
import importlib
import inspect
from functools import cached_property
from pathlib import Path

import kgo

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "kgo" / "__init__.py"
CALLERS = [*sorted((ROOT / "src" / "kgo").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# Exported without a caller, and why each stays: each is a reference the tests read.
UNCALLED = {
    "scalar_value_roots": "the paper's root-search value; tests check `value` against it",
    "stationarity_residual": "the stationarity certificate tests check each trace row against",
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
    # A reference that no test reads is dead code too.
    read_by_tests = set().union(*(references(ast.parse(path.read_text()))
                                  for path in sorted((ROOT / "tests").glob("*.py"))))
    assert sorted(UNCALLED.keys() - read_by_tests) == []


# Defaulted parameters of exports that no call passes, and why each stays.
_BASIS_SHAPE = "a basis shape a library user may ask for; a model.json version 1 key bench/ reads"
UNPASSED = {
    "BasisSpec.source": _BASIS_SHAPE,
    "BasisSpec.mode": _BASIS_SHAPE,
    "BasisSpec.constant_index": _BASIS_SHAPE,
}


def passed_arguments(tree) -> dict:
    """{callee name: [(positional count, keyword names)]} of every call in a module.

    The callee is the called name or attribute. A `*` argument passes every
    positional parameter and a `**` argument every parameter: such a call
    records None for that part.
    """
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        calls.setdefault(name, []).append((None if starred else len(node.args),
                                           None if None in keywords else keywords))
    return calls


def unpassed_defaults(calls: dict) -> list:
    """`<export>.<parameter>` of every defaulted parameter of an exported function or
    dataclass that no call passes."""
    missing = []
    for name in sorted(exported()):
        obj = getattr(kgo, name)
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
            continue
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is param.empty:
                continue
            positional = param.kind is not param.KEYWORD_ONLY
            if not any(keywords is None or param.name in keywords
                       or positional and (count is None or index < count)
                       for count, keywords in calls.get(name, [])):
                missing.append(f"{name}.{param.name}")
    return sorted(missing)


def test_every_option_is_passed():
    calls = {}
    for path in CALLERS:
        for name, found in passed_arguments(ast.parse(path.read_text())).items():
            calls.setdefault(name, []).extend(found)
    assert unpassed_defaults(calls) == sorted(UNPASSED)


def dataclasses_of_package() -> list:
    """Every dataclass defined in a module of `src/kgo`."""
    found = []
    for path in sorted((ROOT / "src" / "kgo").glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"kgo.{path.stem}")
        found += [obj for obj in vars(module).values() if inspect.isclass(obj)
                  and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__]
    return found


def attribute_reads(tree) -> set:
    """Attribute names a module reads (not assigns)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_is_read():
    read = set().union(*(attribute_reads(ast.parse(path.read_text())) for path in CALLERS))
    unread, thin = [], []
    for cls in dataclasses_of_package():
        names = [field.name for field in dataclasses.fields(cls)]
        if len(names) < 2:
            thin.append(cls.__name__)
        if cls is kgo.IterationRecord:  # trace.tsv's columns, read or not
            names = []
        names += [name for name, attr in vars(cls).items()
                  if isinstance(attr, (property, cached_property))]
        unread += [f"{cls.__name__}.{name}" for name in names if name not in read]
    assert sorted(unread) == []
    # A record of one field wraps a value its callers could take directly.
    assert sorted(thin) == []


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
