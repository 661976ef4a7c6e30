"""Export rule: no name in src/spinchain/ without a caller.

A name is one that a module of the package defines at its top level (a
function, a class or an assigned constant); it is private when it starts
with an underscore, else public.  A public name has a caller when something
outside its own definition refers to it in the program, that is in src/,
scripts/ or perfbench/, or in the script entry of pyproject.toml; a private
name needs one in src/.  A reference is a name or an attribute node, an
imported name, or a string constant that is the name or ends in ".name"
(perfbench's tracer names the attributes it wraps in strings).  Tests do
not count: a name that only tests use belongs in tests/oracles.py.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinchain"
PROGRAM = ("src", "scripts", "perfbench")


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def references(tree: ast.Module):
    """(name, line) of every name the tree refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rpartition(".")[2], node.lineno


def uncalled(tops, private: bool, entries=frozenset()) -> list[str]:
    """module.name of each public or private top-level name of the package
    that nothing in the directories `tops` refers to outside its own
    definition, and that is not in `entries`."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in tops for path in sorted((ROOT / top).rglob("*.py"))}
    used = defaultdict(set)  # name -> (file, line) of each reference
    for path, tree in trees.items():
        for name, line in references(tree):
            used[name].add((path, line))
    return [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name, first, last in definitions(trees[path])
            if name.startswith("_") == private and name not in entries
            and not any(p != path or not first <= line <= last for p, line in used[name])]


def test_every_public_name_has_a_caller():
    # the [project.scripts] table: name = "module:function"
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entries = set(re.findall(r':(\w+)"', scripts))
    missing = uncalled(PROGRAM, private=False, entries=entries)
    assert not missing, f"public names that nothing in {PROGRAM} calls: {missing}"


def test_every_private_name_has_a_caller_in_src():
    missing = uncalled(("src",), private=True)
    assert not missing, f"private names that nothing in src/ calls: {missing}"
