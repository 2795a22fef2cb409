"""Every parameter is read: a parameter of a function in `src/prafd` must
be read somewhere in the function's body, nested functions included.  A
method's `self` or `cls` is not counted as a parameter."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "prafd").glob("*.py"))

# The solver's block tables call each entry with one signature, so these
# functions take an argument they have no use for.
UNREAD = {
    # a placement side, called as (ctx, rng, eps); GD draws nothing
    ("baselines.py", "gradient_descent_positions", "rng"),
}


def unread_parameters(source: str) -> list:
    """(line, qualified function name, parameter) for every parameter of a
    function in `source` that its body never reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.extend((child.lineno, name, p) for p in params
                             if p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_check_finds_an_unread_parameter():
    src = ("def f(a, b, *c, d, **e):\n    return a + d\n"
           "class K:\n    def m(self, x):\n        def g(y):\n"
           "            return x\n        return g\n")
    assert unread_parameters(src) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (5, "K.m.g", "y")]


def test_no_unread_parameters():
    assert MODULES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}({param})"
             for path in MODULES
             for line, name, param in unread_parameters(
                 path.read_text(encoding="utf-8"))
             if (path.name, name, param) not in UNREAD]
    assert not found, f"unread parameters: {found}"


def test_every_exception_is_still_unread():
    # An exception whose parameter is read again, or whose function is
    # gone, is stale and goes from the list.
    found = {(path.name, name, param) for path in MODULES
             for _, name, param in unread_parameters(
                 path.read_text(encoding="utf-8"))}
    assert UNREAD <= found
