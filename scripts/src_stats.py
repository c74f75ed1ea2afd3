"""Size of the `delayreach` package: lines per module, every settable value,
and the public names that nothing outside `tests/` references.

A settable value is a parameter with a default, found with `inspect`, of a
public function, of a public method, or of the constructor of a public class
(so every dataclass field with a default).

A public name is a module-level function, class or constant of the package,
or a method, property or annotated field of a public class. It is referenced
where a `.py` file of the checkout outside `tests/` reads it as a name or an
attribute, passes it as a keyword, or spells it as a string (the benchmark's
tracer patches functions by name); its definition and an import (such as
the re-exports of `__init__.py`) do not count. Attributes match by name
alone, so a method counts as referenced when any attribute of that name is
read. Prints one JSON object:

    python scripts/src_stats.py                 # the src/ next to this script
    python scripts/src_stats.py path/to/src     # another checkout's src/
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path


def _with_defaults(label: str, fn) -> list[str]:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # builtins without a signature
        return []
    return [f"{label}({p.name})" for p in params if p.default is not p.empty]


def _settable(module) -> list[str]:
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        label = f"{module.__name__}.{name}"
        if inspect.isfunction(inspect.unwrap(obj)):  # through functools.cache and the like
            out += _with_defaults(label, obj)
        elif inspect.isclass(obj):
            # the constructor only where the class defines one, so an
            # inherited one is not counted twice
            if "__init__" in vars(obj) or "__new__" in vars(obj):
                out += _with_defaults(label, obj)
            for mname, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not mname.startswith("_") and inspect.isfunction(member):
                    out += _with_defaults(f"{label}.{mname}", member)
    return out


def _public_names(tree: ast.Module, module: str) -> dict[str, str]:
    """label -> bare name of each public definition in one module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                out[f"{module}.{name}"] = name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    mname = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    mname = member.target.id
                else:
                    continue
                if not mname.startswith("_"):
                    out[f"{module}.{node.name}.{mname}"] = mname
    return out


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            refs.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def unreferenced(src: Path) -> list[str]:
    """Public names of the package that no file of the checkout outside tests/ references."""
    root = src.parent
    defined = {}
    for path in sorted((src / "delayreach").glob("*.py")):
        defined.update(_public_names(ast.parse(path.read_text()), f"delayreach.{path.stem}"))
    refs = set()
    for path in root.rglob("*.py"):
        if "tests" not in path.relative_to(root).parts:
            refs |= _references(ast.parse(path.read_text()))
    return sorted(label for label, name in defined.items() if name not in refs)


def stats(src: Path) -> dict:
    sys.path.insert(0, str(src))
    pkg = src / "delayreach"
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))}
    settable = []
    for info in sorted(pkgutil.iter_modules([str(pkg)]), key=lambda m: m.name):
        settable += _settable(importlib.import_module(f"delayreach.{info.name}"))
    return {
        "src_lines": sum(lines.values()),
        "lines": lines,
        "settable_values": len(settable),
        "settable": settable,
        "unreferenced": unreferenced(src),
    }


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "src"
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else default
    print(json.dumps(stats(src), indent=2))
