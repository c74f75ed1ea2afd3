"""Interleaved A/B timing of two checkouts in one process, on the benchmark's
workloads: a speed ratio that drift of the machine's speed does not swamp.

    python scripts/abtime.py path/to/base                  # base against this checkout
    python scripts/abtime.py path/to/base path/to/change --rounds 10

Each checkout's `delayreach` is imported from its own `src/` into this one
interpreter, and the workloads of this checkout's `drbench/workloads.py`
(imported, not changed) drive both, every workload at seed 1. In each round
every operation runs on both sides back to back, the side that goes first
alternating from one operation to the next, and the two digests of its result
must agree. A round's
ratio is the base's time over the change's, the change's `ops_per_s` over the
base's. One line per round, then per workload the median, min and max of the
ratios; the last line is the same as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 1


def load(root: Path):
    """The `delayreach` package of the checkout at root, imported under its own
    name and then taken out of `sys.modules`, so another checkout's can follow."""
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        import delayreach
    finally:
        sys.path.remove(src)
    for name in [m for m in sys.modules if m == "delayreach" or m.startswith("delayreach.")]:
        del sys.modules[name]
    if Path(delayreach.__file__).resolve().parent != (root / "src" / "delayreach").resolve():
        raise SystemExit(f"delayreach imported from {delayreach.__file__}, not {root / 'src'}")
    return delayreach


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=HERE)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True  # leave drbench/ and both src/ as they are
    sys.path.insert(0, str(HERE / "drbench"))
    import startup
    import workloads

    sides = []
    for root in (args.base, args.change):
        dr = load(root.resolve())
        sides.append((dr, startup.prepare(dr)))
    out = {}
    for name, make in workloads.WORKLOADS.items():
        wls = [make(dr, ctx, SEED) for dr, ctx in sides]
        ratios = []
        for k in range(args.rounds):
            spent = [0.0, 0.0]
            for j, inp in enumerate(wls[0].round_inputs(k)):
                digests = [None, None]
                for s in ((0, 1) if (k + j) % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    raw = wls[s].run(inp)
                    spent[s] += time.perf_counter() - t0
                    digests[s] = wls[s].summarize(inp, raw)["digest"]
                if digests[0] != digests[1]:
                    raise SystemExit(f"{name} {inp}: the two checkouts' outputs differ")
            ratios.append(spent[0] / spent[1])
            print(f"{name} round {k}: base {spent[0]:.3f} s, change {spent[1]:.3f} s, "
                  f"ratio {ratios[-1]:.3f}", flush=True)
        out[name] = {"ratios": [round(r, 4) for r in ratios], "median": round(statistics.median(ratios), 4),
                     "min": round(min(ratios), 4), "max": round(max(ratios), 4),
                     "change_ahead": sum(r > 1.0 for r in ratios)}
        print(f"{name}: ratio median {out[name]['median']:.3f} [{out[name]['min']:.3f}, "
              f"{out[name]['max']:.3f}], change ahead in {out[name]['change_ahead']} of {len(ratios)} rounds")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
