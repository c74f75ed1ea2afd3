"""The set-up every experiment pays at default settings.

Set-up is the import of `delayreach`, `default_certificate()`, and the
recorded greedy escape schedule whose escape time fixes the default delay
tau = 1.5 * t_escape. Run as a script, this module performs one cold set-up
in a fresh interpreter and prints its wall time in seconds as the last line.
It imports only the standard library before the timer starts, so a sample
taken here and one taken in the benchmark process measure the same work.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout has no `src/delayreach` to benchmark."""


def import_delayreach():
    """Import `delayreach` from this checkout's `src/`, and only from there."""
    if not (SRC / "delayreach" / "__init__.py").is_file():
        raise SourceMissing(f"no delayreach package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import delayreach

    if Path(delayreach.__file__).resolve().parent != (SRC / "delayreach").resolve():
        raise SourceMissing(f"delayreach imported from {delayreach.__file__}, not {SRC}")
    return delayreach


def prepare(dr):
    """Certificate, escape schedule and default delay, as the probes compute them."""
    cert = dr.default_certificate()
    schedule, t_escape = dr.escape_schedule()
    return {"cert": cert, "schedule": schedule, "t_escape": t_escape, "tau": 1.5 * t_escape}


def timed_setup():
    """One cold set-up in this process: (seconds, delayreach module, context)."""
    t0 = time.perf_counter()
    dr = import_delayreach()
    ctx = prepare(dr)
    return time.perf_counter() - t0, dr, ctx


if __name__ == "__main__":
    seconds, _, _ = timed_setup()
    print(repr(seconds))
