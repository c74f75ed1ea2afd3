import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_only_the_stored_dwell_is_test_only(monkeypatch):
    # src/ holds what a program path runs: a public name that only tests
    # reach belongs in tests/. DWELL records the stored schedule's dwell.
    spec = importlib.util.spec_from_file_location("src_stats", ROOT / "scripts" / "src_stats.py")
    src_stats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_stats)
    monkeypatch.setattr(sys, "path", list(sys.path))  # stats() prepends src/
    assert src_stats.stats(ROOT / "src")["unreferenced"] == ["delayreach.escape_data.DWELL"]
