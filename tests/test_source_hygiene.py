"""Leftovers that no linter catches here: an import that its module never
uses, a private function or method that nothing calls, and a name in
README.md that the code no longer has.

The first two checks read the syntax trees only.  An import counts as
used when its name appears anywhere in its module (or in the module's
__all__); lines marked ``# noqa`` and ``from __future__`` imports are
exempt.  A private function counts as referenced when its name appears,
outside its own body, as a name, an attribute or a string in src/,
bench/*.py or tests/ (the benchmark patches some functions by their name
as a string)."""

import ast
import importlib
import re
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baradapt"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_in(tree) -> Counter:
    """Every identifier a tree mentions: names, attributes, imported names
    and strings that are identifiers."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, f"unused imports: {unused}"


def test_every_private_function_is_referenced():
    trees = {path: parse(path) for path in MODULES}
    others = [*(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    everywhere = sum((names_in(tree) for tree in trees.values()), Counter())
    for path in others:
        everywhere += names_in(parse(path))
    unreferenced = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            # a recursive call is no reference from outside
            if everywhere[name] - names_in(node)[name] <= 0:
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert not unreferenced, f"private functions nothing references: {unreferenced}"


def test_readme_names_resolve():
    """Every backticked dotted name in README.md whose head is a baradapt
    module or a class defined in src/ (`sim._compile`,
    `ConstraintGroup._slacks`) resolves by getattr."""
    heads = {}
    for path in MODULES:
        name = "baradapt" if path.stem == "__init__" else f"baradapt.{path.stem}"
        module = importlib.import_module(name)
        heads[name.rpartition(".")[2]] = module
        heads.update((node.name, getattr(module, node.name))
                     for node in parse(path).body if isinstance(node, ast.ClassDef))
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text))):
        head, *attrs = name.split(".")
        if head in heads:
            try:
                reduce(getattr, attrs, heads[head])
            except AttributeError:
                missing.append(name)
    assert not missing, f"README.md names what the code does not have: {missing}"
