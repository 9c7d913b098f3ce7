"""The package exposes nothing that only tests call.

Every public module-level function, public class, public method of a public
class and upper-case module constant in ``src/shieldrl`` must be referenced
by name somewhere in ``src/`` or ``perfbench/`` outside its own definition.
A package's ``__init__.py`` only re-exports names, so it is no caller.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shieldrl"
CALLERS = (ROOT / "src", ROOT / "perfbench")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _names(node: ast.AST) -> Counter:
    """Identifiers that ``node`` uses: bare names, attributes, imported names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def _public_defs(tree: ast.Module):
    """``(qualified name, name, defining node)`` for public functions, classes,
    class methods and upper-case module constants."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                    yield target.id, target.id, target
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member


def test_every_public_function_and_method_has_a_caller():
    trees = {
        path: ast.parse(path.read_text())
        for base in CALLERS
        for path in sorted(base.rglob("*.py"))
    }
    uses = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            uses.update(_names(tree))

    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for qualname, name, node in _public_defs(tree):
            if uses[name] - _names(node)[name] <= 0:
                unused.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert unused == [], "public API with no caller outside tests:\n" + "\n".join(unused)
