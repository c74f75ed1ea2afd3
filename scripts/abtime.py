"""Interleaved A/B timing of two checkouts in one process, on the benchmark's
workloads: a speed ratio that drift of the machine's speed does not swamp.

    python scripts/abtime.py path/to/base                  # base against this checkout
    python scripts/abtime.py path/to/base path/to/change --rounds 10

Each checkout's `delayreach` is imported from its own `src/` into this one
interpreter, the base's twice: the second load is the A/A control, which
times the base against itself in the same interleaving. The workloads of
this checkout's `drbench/workloads.py` (imported, not changed) drive all
three sides, every workload at seed 1. In each round every operation runs on
the three sides back to back, the order rotating from one operation to the
next, so each side goes first, second and third equally often. A round's
ratio is the base's time over the change's, the change's `ops_per_s` over the
base's; its A/A ratio is the base's time over the control's, which reads 1.0
but for noise and the bias of the interleaving. Then, as `recorded_escape`,
the `escape` subcommand's path, which no workload covers: `recorded_escape()`
at the default dwell, `ESCAPE_CALLS` times per side and round, in the same
rotation, whose runs are compared by escape time, final norm, switching
signal, and the bytes of ts, ys and qs.

The three sides' digests of each operation (or runs of each call) must
agree; each mismatch is reported on stderr as it is seen, the timing goes
on, and the script exits 1 at the end if there was one. One line per round,
then per workload the median, min and max of the ratios, each next to the
A/A control's; the last line is the same as one JSON object.
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


#: the sides, in the order they are loaded; "control" is a second load of the base
SIDES = ("base", "control", "change")


def order(i: int) -> tuple:
    """The order of the sides at the i-th operation: a rotation, by i."""
    return tuple((i + s) % len(SIDES) for s in range(len(SIDES)))


def stats(ratios: list) -> dict:
    return {"ratios": [round(r, 4) for r in ratios], "median": round(statistics.median(ratios), 4),
            "min": round(min(ratios), 4), "max": round(max(ratios), 4), "ahead": sum(r > 1.0 for r in ratios)}


def summary(name: str, spent: list) -> dict:
    """The A/B ratios of one workload (base over change per round) and the
    A/A control's (base over control), from the per-round times of each side;
    printed and returned."""
    base, control, change = zip(*spent)
    out = {**stats([b / c for b, c in zip(base, change)]), "aa": stats([b / c for b, c in zip(base, control)])}
    print(f"{name}: ratio median {out['median']:.3f} [{out['min']:.3f}, {out['max']:.3f}], change ahead in "
          f"{out['ahead']} of {len(spent)} rounds; A/A {out['aa']['median']:.3f} "
          f"[{out['aa']['min']:.3f}, {out['aa']['max']:.3f}], control ahead in {out['aa']['ahead']}")
    return out


def escape_digest(s: int, j: int, rec) -> tuple:
    """What the sides' runs of one `recorded_escape()` call must share."""
    end, traj = rec.outcome, rec.outcome.trajectory
    return (end.t_escape, end.final_norm, rec.signal.values.tobytes(), rec.signal.breaks.tobytes(),
            traj.ts.tobytes(), traj.ys.tobytes(), traj.qs.tobytes())


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

    sides, mismatches = [], []
    for root in (args.base, args.base, args.change):
        dr = load(root.resolve())
        sides.append((dr, startup.prepare(dr)))

    def timed(k: int, items, run, digest, what) -> list:
        """Each side's seconds in run(s, item) over the items, the j-th item
        on the sides in `order(k + j)`; where digest(s, item, result) differs
        between the sides, the mismatch what(item) is reported and kept."""
        spent = [0.0] * len(SIDES)
        for j, item in enumerate(items):
            seen = [None] * len(SIDES)
            for s in order(k + j):
                t0 = time.perf_counter()
                raw = run(s, item)
                spent[s] += time.perf_counter() - t0
                seen[s] = digest(s, item, raw)
            if seen.count(seen[0]) != len(SIDES):
                print(f"MISMATCH {what(item)}: the sides' results differ", file=sys.stderr, flush=True)
                mismatches.append(what(item))
        return spent

    out = {}
    for name, make in workloads.WORKLOADS.items():
        wls = [make(dr, ctx, SEED) for dr, ctx in sides]
        rounds = []
        for k in range(args.rounds):
            rounds.append(timed(k, wls[0].round_inputs(k), lambda s, inp: wls[s].run(inp),
                                lambda s, inp, raw: wls[s].summarize(inp, raw)["digest"],
                                lambda inp: f"{name} round {k} {inp}"))
            b, a, c = rounds[-1]
            print(f"{name} round {k}: base {b:.3f} s, control {a:.3f} s, change {c:.3f} s, "
                  f"ratio {b / c:.3f} (A/A {b / a:.3f})", flush=True)
        out[name] = summary(name, rounds)

    # the `escape` subcommand's path, which no workload covers
    rounds = []
    for k in range(args.rounds):
        spent = timed(k, range(ESCAPE_CALLS), lambda s, j: sides[s][0].recorded_escape(),
                      escape_digest, lambda j: f"recorded_escape round {k} call {j}")
        rounds.append([round(x * 1e3, 2) for x in spent])
        b, a, c = rounds[-1]
        print(f"recorded_escape round {k}: base {b:.1f} ms, control {a:.1f} ms, change {c:.1f} ms "
              f"for {ESCAPE_CALLS} calls, ratio {b / c:.3f} (A/A {b / a:.3f})", flush=True)
    out["recorded_escape"] = summary("recorded_escape", rounds)
    out["recorded_escape"].update({f"{side}_ms": list(ms) for side, ms in zip(SIDES, zip(*rounds))})
    out["mismatches"] = mismatches
    print(json.dumps(out))
    if mismatches:
        print(f"{len(mismatches)} operations differ between the sides", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
