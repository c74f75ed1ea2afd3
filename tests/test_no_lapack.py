import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delayreach"


def lapack_uses(tree: ast.Module) -> list:
    """The lines of a module that reach `numpy.roots` or `numpy.linalg`: by an
    attribute of numpy under any name it is imported as, or by an import."""
    numpy = {a.asname or a.name: a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names if a.name.split(".")[0] == "numpy"}
    hits = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "numpy":
            names = [f"{n.module}.{a.name}" for a in n.names]
        elif isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.Attribute):
            parts, v = [n.attr], n.value
            while isinstance(v, ast.Attribute):
                parts, v = [v.attr, *parts], v.value
            names = [".".join([numpy[v.id], *parts])] if isinstance(v, ast.Name) and v.id in numpy else []
        else:
            continue
        hits += [(n.lineno, name) for name in names if name == "numpy.roots" or name.startswith("numpy.linalg")]
    return hits


def test_no_module_calls_lapack():
    # suprema and crossings are decided in floats and integers: no module
    # finds roots with np.roots or calls into numpy.linalg
    hits = {p.name: lapack_uses(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {name: h for name, h in hits.items() if h} == {}


def test_the_scan_sees_each_spelling():
    src = ("import numpy as np\nimport numpy.linalg as la\nfrom numpy import roots\nfrom numpy.linalg import eigvals\n"
           "np.roots([1.0, 2.0])\nnp.linalg.eigvals(a)\nx = np.sqrt(2.0)\n")
    assert sorted({line for line, _ in lapack_uses(ast.parse(src))}) == [2, 3, 4, 5, 6]
