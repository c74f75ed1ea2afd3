"""Size of the `delayreach` package: lines per module and every settable value.

A settable value is a parameter with a default, found with `inspect`, of a
public function, of a public method, or of the constructor of a public class
(so every dataclass field with a default). Prints one JSON object:

    python scripts/src_stats.py                 # the src/ next to this script
    python scripts/src_stats.py path/to/src     # another checkout's src/
"""

from __future__ import annotations

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
    }


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "src"
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else default
    print(json.dumps(stats(src), indent=2))
