"""Every imported name is used: a name bound by an import statement must
appear elsewhere in its module or, in a package `__init__`, in `__all__`.
Importing the package loads no process pool."""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "prafd").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str, is_init: bool = False) -> list:
    """Names bound by imports in `source` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if is_init:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_check_finds_an_unused_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(src) == [(1, "os"), (3, "c")]
    init = "from .m import f, g\n__all__ = ['f']\n"
    assert unused_imports(init, is_init=True) == [(1, "g")]


def test_no_unused_imports():
    assert MODULES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES
             for line, name in unused_imports(path.read_text(encoding="utf-8"),
                                              path.name == "__init__.py")]
    assert not found, f"unused imports: {found}"


def test_import_loads_no_process_pool():
    # The pool's module pulls in multiprocessing, socket and subprocess;
    # only a run with more than one thread imports it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, prafd; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
