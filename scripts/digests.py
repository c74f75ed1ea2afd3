"""SHA-256 digests of what the program computes, to show that a change moves
no float: run it on two checkouts and `diff` the outputs.

    python scripts/digests.py                   # the checkout of this script
    python scripts/digests.py path/to/checkout  # another checkout

One line per item, `<sha256>  <label>`, then the SHA-256 over those lines:
- per workload and seed (1 and 2), the operation digests of rounds 0 and 1
  of the benchmark's three workloads, made by the checkout's own
  `drbench/workloads.py`, which is imported and not changed;
- per CLI invocation at its defaults, at --seed 0 and --seed 7, its exit
  code, its stdout and the bytes of every CSV and JSON file it writes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOAD_SEEDS = (1, 2)
WORKLOAD_ROUNDS = (0, 1)
CLI_SEEDS = (0, 7)
CLI_RUNS = (
    ("lyapunov",),
    ("simulate",),
    ("escape",),
    ("estimate-r",),
    ("estimate-r", "--system", "cascade"),
    ("estimate-r", "--system", "associated"),
    ("rfc-sweep",),
    ("es-check",),
    ("uga-table",),
    ("equiv-check",),
)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def workload_digests(root: Path):
    """(label, sha256) per workload and seed, in process from the checkout."""
    sys.dont_write_bytecode = True  # leave the checkout's drbench/ as it is
    sys.path[:0] = [str(root / "drbench")]
    import startup
    import workloads

    dr = startup.import_delayreach()
    ctx = startup.prepare(dr)
    for name, make in workloads.WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            wl = make(dr, ctx, seed)
            ops = [wl.summarize(inp, wl.run(inp))["digest"]
                   for k in WORKLOAD_ROUNDS for inp in wl.round_inputs(k)]
            yield f"drbench {name} seed {seed} ({len(ops)} operations)", _sha(*(d.encode() for d in ops))


def cli_digests(root: Path):
    """(label, sha256) per CLI invocation, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for k in ("DELAYREACH_CONFIG", "DELAYREACH_SEED", "DELAYREACH_OUT"):
        env.pop(k, None)
    for seed in CLI_SEEDS:
        for args in CLI_RUNS:
            with tempfile.TemporaryDirectory() as tmp:
                cmd = [sys.executable, "-m", "delayreach.cli", "--seed", str(seed), "--out", "out", *args]
                proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True)
                parts = [str(proc.returncode).encode(), proc.stdout]
                out = Path(tmp) / "out"
                for f in sorted(out.iterdir()) if out.is_dir() else ():
                    parts += [f.name.encode(), f.read_bytes()]
            yield f"cli --seed {seed} {' '.join(args)}", _sha(*parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    lines = [f"{sha}  {label}" for digests in (workload_digests, cli_digests)
             for label, sha in digests(root)]
    for line in lines:
        print(line, flush=True)
    print(f"{_sha(*(line.encode() for line in lines))}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
