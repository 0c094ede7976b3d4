"""The package surface is what its callers use.

Every public top-level function and class of `src/scalesort`, and every
public method, must be named (as a name or an attribute) somewhere other
than its own definition: in the package, in the acceptance suite or in the
benchmark.  Unit tests do not count as callers, so a member that only they
reach fails here.  Every private top-level function and method must be named
somewhere in the package other than its own definition, so a helper left
behind by a refactor fails too.  Only `ScaleSpec`'s own members call
`.mirrored()`, so `ScaleSpec.read_side` stays the one place that decides
whether an instrument is read as its mirror.  No module imports `gc`: the
benchmark rescales its timings by a reference loop whose speed the
collector moves, so a collector change cannot be measured until that loop
allocates nothing (ROADMAP item 1).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "scalesort").glob("*.py"))
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _uses(node: ast.AST) -> Counter:
    """How often each identifier is read or written as a name or an attribute."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions(tree: ast.Module, private: bool):
    """(qualified name, node) of each top-level function, class and method
    whose name is private (one leading underscore) or public, as asked."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def wanted(node: ast.AST) -> bool:
        return (isinstance(node, kinds) and not node.name.startswith("__")
                and node.name.startswith("_") == private)

    for node in tree.body:
        if wanted(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if wanted(member):
                    yield f"{node.name}.{member.name}", member


def _unused(paths, private: bool) -> list[str]:
    """Definitions in the package that nothing in `paths` names beyond themselves."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in set(PACKAGE + paths)}
    uses = sum((_uses(trees[path]) for path in paths), Counter())
    return [f"{path.name}:{node.lineno} {qualname}"
            for path in PACKAGE
            for qualname, node in _definitions(trees[path], private)
            if uses[node.name] == _uses(node)[node.name]]


def test_every_public_member_has_a_caller():
    unused = _unused(PACKAGE + CALLERS, private=False)
    assert not unused, "public members nothing calls: " + ", ".join(unused)


def test_every_private_helper_has_a_caller_in_the_package():
    unused = _unused(PACKAGE, private=True)
    assert not unused, "private helpers nothing in the package names: " + ", ".join(unused)


def _calls(node: ast.AST, name: str) -> list[int]:
    """Line of each call of `name`, as a name or an attribute, under node."""
    return [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and (sub.func.id if isinstance(sub.func, ast.Name)
                 else getattr(sub.func, "attr", None)) == name]


def test_only_scale_spec_calls_mirrored():
    calls = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "ScaleSpec":
                continue
            calls += [f"{path.name}:{line}" for line in _calls(node, "mirrored")]
    assert not calls, "mirrored() called outside ScaleSpec: " + ", ".join(calls)


def test_the_package_does_not_import_gc():
    imports = [f"{path.name}:{node.lineno}" for path in PACKAGE
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Import) and any(
                   alias.name.split(".")[0] == "gc" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "gc"]
    assert not imports, "gc imported: " + ", ".join(imports)
