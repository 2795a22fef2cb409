"""Every definition is used: a top-level function, class or constant of
`src/prafd` must be referenced outside its own definition, in its module,
elsewhere in the package, in the tests or in perfbench.  A reference is a
name, an attribute, an imported name or a string that spells the name (a
monkeypatched or traced attribute), so a test-only helper counts as used."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "prafd").glob("*.py"))
READERS = sorted([*(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def references(tree, skip=None) -> set:
    """Every name `tree` refers to, outside the subtree `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def definitions(tree) -> list:
    """(node, name) for each top-level function, class and assigned name;
    dunder names are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out.extend((node, n) for n in names if not n.startswith("__"))
    return out


def unused_definitions(package: dict, readers: list) -> list:
    """(module, line, name) of each definition in `package` (module name to
    source) referenced nowhere but in its own definition; `readers` are
    the sources of other code that may reference it."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    elsewhere = {mod: set() for mod in trees}
    for mod, tree in trees.items():
        refs = references(tree)
        for other in elsewhere:
            if other != mod:
                elsewhere[other] |= refs
    outside = set().union(*(references(ast.parse(src)) for src in readers))
    return [(mod, node.lineno, name)
            for mod, tree in trees.items()
            for node, name in definitions(tree)
            if name not in outside and name not in elsewhere[mod]
            and name not in references(tree, skip=node)]


def test_check_finds_an_unused_definition():
    package = {
        "a": "X = 1\nY: int = 2\n__all__ = []\n"
             "def f():\n    return f()\n"
             "def g():\n    return X\nclass C:\n    pass\n",
        "b": "from .a import g\n",
    }
    readers = ["setattr(obj, 'C', None)\n"]
    assert unused_definitions(package, readers) == [("a", 2, "Y"),
                                                     ("a", 4, "f")]


def test_no_unused_definitions():
    assert PACKAGE and READERS
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    found = [f"src/prafd/{mod}:{line}: {name}"
             for mod, line, name in unused_definitions(package, readers)]
    assert not found, f"unused definitions: {found}"
