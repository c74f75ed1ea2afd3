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
base's. Then, as `recorded_escape`, the `escape` subcommand's path, which no
workload covers: `recorded_escape()` at the default dwell, `ESCAPE_CALLS`
times per side and round, the side that goes first alternating from one call
to the next, and the two runs of each call must agree: escape time, final
norm, switching signal, and the bytes of ts, ys and qs. One line per round,
then per workload the median, min and max of the ratios; the last line is
the same as one JSON object.
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
#: `recorded_escape()` calls per side and round; an A/A control spread
#: 0.77-1.41 round by round with one call (~50-190 ms), 0.87-1.08 with five
ESCAPE_CALLS = 5


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


def summary(name: str, ratios: list) -> dict:
    """The median, min and max of one workload's ratios, printed and returned."""
    out = {"ratios": [round(r, 4) for r in ratios], "median": round(statistics.median(ratios), 4),
           "min": round(min(ratios), 4), "max": round(max(ratios), 4),
           "change_ahead": sum(r > 1.0 for r in ratios)}
    print(f"{name}: ratio median {out['median']:.3f} [{out['min']:.3f}, {out['max']:.3f}], "
          f"change ahead in {out['change_ahead']} of {len(ratios)} rounds")
    return out


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
        out[name] = summary(name, ratios)
    # the `escape` subcommand's path, which no workload covers
    ms = [[], []]
    for k in range(args.rounds):
        spent = [0.0, 0.0]
        for j in range(ESCAPE_CALLS):
            seen = [None, None]
            for s in ((0, 1) if (k + j) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                run = sides[s][0].recorded_escape()
                spent[s] += time.perf_counter() - t0
                end, traj = run.outcome, run.outcome.trajectory
                seen[s] = (end.t_escape, end.final_norm, run.signal.values.tobytes(), run.signal.breaks.tobytes(),
                           traj.ts.tobytes(), traj.ys.tobytes(), traj.qs.tobytes())
            if seen[0] != seen[1]:
                raise SystemExit("recorded_escape: the two checkouts' runs differ")
        for s in (0, 1):
            ms[s].append(round(spent[s] * 1e3, 2))
        print(f"recorded_escape round {k}: base {ms[0][-1]:.1f} ms, change {ms[1][-1]:.1f} ms "
              f"for {ESCAPE_CALLS} calls, ratio {ms[0][-1] / ms[1][-1]:.3f}", flush=True)
    out["recorded_escape"] = summary("recorded_escape", [a / b for a, b in zip(*ms)])
    out["recorded_escape"].update(base_ms=ms[0], change_ms=ms[1])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
