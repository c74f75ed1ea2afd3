"""Repeat each workload over several seeds and compare the spread with the bounds.

    python3 drbench/repeat.py --runs 10 [--sets 2] [--workload escape ...]

Runs the command of BENCHMARK.json (from the root of the checkout) once per
seed, `--runs` seeds per set, one run at a time. For every end-to-end metric
it prints the median and the quartiles of each set (Python's
`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median next to
the metric's bound, and with two sets the change of the median from the
first set to the second in the metric's worse direction. It also prints the
share of failed operations per set. It exits with 1 when a spread other
than that of setup_s exceeds its bound, when a median moves by more than
its bound, when the failed shares differ, or when a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    results = {}
    for wl in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                res = run_once(bench, wl, seed)
                runs.append(res)
                vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                print(f"{wl} set {s + 1} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
                ok &= res["correct"]
            sets.append(runs)
        results[wl] = sets
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        print(f"\n{wl}: failed share per set {shares}")
        ok &= len(set(shares)) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            line = f"  {name:12s} bound {bound:.2f}"
            medians = []
            for runs in sets:
                q1, med, q3 = summary([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if name == "setup_s" or spread <= bound else " OVER"
                ok &= bool(name == "setup_s" or spread <= bound)
                line += f" | median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}{flag}"
            if len(medians) == 2:
                worse = sign * (medians[1] - medians[0]) / medians[0]
                flag = "" if worse <= bound else " OVER"
                ok &= worse <= bound
                line += f" | second median worse by {worse:+.3f}{flag}"
            print(line)
        print(flush=True)
    out = ROOT / "drbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(results, indent=1) + "\n")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
