"""Benchmark of delayreach: the escape, reach-time and reach-peak experiments.

    python3 drbench/run.py --workload escape --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. With `--trace 0` it runs whole rounds of
the workload's operations for about `--seconds`, untraced, and times the
set-up three times: once here before the pass, and in a fresh interpreter
after each half of it. It prints the end-to-end metrics. With `--trace 1` it runs the same untraced pass, then
replays its first round with every layer wrapped by `tracer.Tracer`,
checks that the replay's outputs are bit-identical, and prints the
per-layer metrics and the tracing overhead. Either way every operation is
checked against properties of the method and against `reference.py`, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import startup

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
#: rounds replayed under the tracer, so per-operation counts repeat exactly
TRACE_ROUNDS = 1
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Record:
    round: int
    inp: object
    seconds: float
    summary: dict = None
    problems: list = field(default_factory=list)
    failed: bool = False


@dataclass
class Pass:
    records: list = field(default_factory=list)
    elapsed: float = 0.0
    round_seconds: list = field(default_factory=list)
    round_problems: list = field(default_factory=list)


def run_pass(wl, p, seconds=None, rounds=None, tracer=None):
    """Append whole rounds to `p`: about `seconds` worth, or exactly `rounds`."""
    start = time.perf_counter()
    first = len(p.round_seconds)
    while True:
        k = len(p.round_seconds)
        r0 = time.perf_counter()
        recs = []
        for inp in wl.round_inputs(k):
            if tracer is not None:
                tracer.begin(len(p.records) + len(recs))
            a = time.perf_counter()
            try:
                raw = wl.run(inp)
                err = None
            except Exception:  # an operation's failure is counted, not fatal
                raw, err = None, traceback.format_exc()
            b = time.perf_counter()
            if tracer is not None:
                tracer.end()
            rec = Record(round=k, inp=inp, seconds=b - a)
            if err is None:
                rec.summary = wl.summarize(inp, raw)
                rec.problems = wl.check(inp, rec.summary)
            else:
                rec.failed = True
                print(f"operation {inp} failed:\n{err}", file=sys.stderr)
            del raw
            recs.append(rec)
        p.round_problems.extend(wl.check_round(recs))
        p.records.extend(recs)
        p.round_seconds.append(time.perf_counter() - r0)
        now = time.perf_counter() - start
        done_rounds = k + 1 - first
        if rounds is not None:
            done = done_rounds >= rounds
        else:
            # stop where the next round would overshoot by more than half of it
            done = now + 0.5 * now / done_rounds >= seconds
        if done:
            p.elapsed += now
            return p


def verify(wl, records):
    """Reference checks on first occurrences; repeats must be bit-identical."""
    problems = []
    first = {}
    for rec in records:
        if rec.failed:
            continue
        key = repr(rec.inp)
        if key in first:
            if rec.summary["digest"] != first[key]:
                problems.append(f"{rec.inp}: output differs from the same input's first run")
            continue
        first[key] = rec.summary["digest"]
        if wl.wants_reference(rec.inp):
            problems.extend(f"{rec.inp}: {p}" for p in wl.reference(rec.inp, rec.summary))
    return problems


def subprocess_setup():
    proc = subprocess.run(
        [sys.executable, str(HERE / "startup.py")],
        cwd=str(startup.ROOT),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def op_problems(p):
    out = [f"{r.inp}: {x}" for r in p.records for x in r.problems]
    return out + p.round_problems


def timed_run(args):
    seconds, dr, ctx = startup.timed_setup()
    setup = [seconds]
    import workloads

    wl = workloads.WORKLOADS[args.workload](dr, ctx, args.seed)
    # the pass is split into segments with a set-up sample after each, so the
    # timings sample a longer stretch of wall-clock time at the same cost
    p = Pass()
    for _ in range(SETUP_SAMPLES - 1):
        run_pass(wl, p, seconds=args.seconds / (SETUP_SAMPLES - 1))
        setup.append(subprocess_setup())
    done = [r for r in p.records if not r.failed]
    problems = op_problems(p) + verify(wl, p.records)
    times = [r.seconds for r in done]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload} seed {args.seed}: {len(p.round_seconds)} rounds, "
          f"{len(done)} operations in {p.elapsed:.3f} s")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"op_s_p50 over {len(times)} operations")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(done) / p.elapsed, "1/s"),
        "op_s_p50": (statistics.median(times) if times else float("nan"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return p.records, problems, metrics


def traced_run(args):
    import tracer as tracing

    dr = startup.import_delayreach()
    tr = tracing.Tracer()
    tr.install(dr)
    tr.begin(tracing.SETUP)
    ctx = startup.prepare(dr)
    tr.end()
    tr.uninstall()
    import workloads

    wl = workloads.WORKLOADS[args.workload](dr, ctx, args.seed)
    plain = run_pass(wl, Pass(), seconds=args.seconds)
    n = min(len(plain.round_seconds), TRACE_ROUNDS)
    tr.install(dr)
    try:
        traced = run_pass(wl, Pass(), rounds=n, tracer=tr)
    finally:
        tr.uninstall()
    problems = op_problems(plain) + op_problems(traced) + verify(wl, plain.records)
    replayed = [r for r in plain.records if r.round < n]
    for a, b in zip(replayed, traced.records):
        if a.failed or b.failed or a.summary["digest"] != b.summary["digest"]:
            problems.append(f"{a.inp}: traced output is not bit-identical to the untraced one")
    # every round has the same make-up; the median round is past any warm-up
    overhead = traced.elapsed / (n * statistics.median(plain.round_seconds))
    OUT.mkdir(exist_ok=True)
    tr.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {k: (v["value"], v["unit"]) for k, v in tr.metrics(len(traced.records)).items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"workload {args.workload} seed {args.seed}: traced {len(traced.records)} operations "
          f"({n} rounds), {overhead:.3f}x the untraced time")
    return plain.records + traced.records, problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["escape", "reach_times", "reach_peaks"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        records, problems, metrics = (traced_run if args.trace else timed_run)(args)
    except startup.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
