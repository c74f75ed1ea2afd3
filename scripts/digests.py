"""SHA-256 digests of what the program computes, to show that a change moves
no float: run it on two checkouts and `diff` the outputs.

    python scripts/digests.py                   # the checkout of this script
    python scripts/digests.py path/to/checkout  # another checkout
    python scripts/digests.py --settings [path] # each setting of SETTINGS, diffed

With `--settings` it runs itself once per setting of `SETTINGS`, each in a
fresh interpreter with that environment, prints each setting's total and
every line that differs from the default's, and exits 1 if any does.

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


#: name -> the environment of a run: OpenBLAS's Sandybridge kernel (no FMA),
#: and numpy held to AVX2; each is set in that run's interpreter only
SETTINGS = {
    "default": {},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "avx2": {"NPY_ENABLE_CPU_FEATURES": "X86_V2,X86_V3"},
}


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


def settings_diff(root: Path) -> int:
    """Run this script on root once per setting; 1 if any line differs from the default's."""
    runs = {}
    for name, setting in SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES")}
        proc = subprocess.run([sys.executable, __file__, str(root)], env=dict(env, **setting),
                              capture_output=True, text=True, check=True)
        runs[name] = dict(line.split("  ", 1)[::-1] for line in proc.stdout.splitlines())
        print(f"{runs[name]['total']}  total, {name}", flush=True)
    moved = 0
    for name, digests in runs.items():
        for label, sha in runs["default"].items():
            if label != "total" and digests.get(label) != sha:
                moved += 1
                print(f"{name}: {label}: {sha} -> {digests.get(label)}")
    return 1 if moved else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    settings = argv[:1] == ["--settings"]
    argv = argv[1:] if settings else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if settings:
        return settings_diff(root)
    lines = [f"{sha}  {label}" for digests in (workload_digests, cli_digests)
             for label, sha in digests(root)]
    for line in lines:
        print(line, flush=True)
    print(f"{_sha(*(line.encode() for line in lines))}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
