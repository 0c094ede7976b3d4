"""The package surface is what its callers use.

Every public top-level function and class of `src/scalesort`, and every
public method, must be named (as a name or an attribute) somewhere other
than its own definition: in the package, in the acceptance suite or in the
benchmark.  Unit tests do not count as callers, so a member that only they
reach fails here.
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


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_member_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + CALLERS}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}:{node.lineno} {qualname}"
              for path in PACKAGE
              for qualname, node in _public_definitions(trees[path])
              if uses[node.name] == _uses(node)[node.name]]
    assert not unused, "public members nothing calls: " + ", ".join(unused)
