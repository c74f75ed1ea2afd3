import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_name_is_test_only_and_few_values_are_settable(monkeypatch):
    # src/ holds what a program path runs: a public name that only tests
    # reach belongs in tests/, and a default that no caller changes is a
    # constant, not a parameter
    spec = importlib.util.spec_from_file_location("src_stats", ROOT / "scripts" / "src_stats.py")
    src_stats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_stats)
    monkeypatch.setattr(sys, "path", list(sys.path))  # stats() prepends src/
    stats = src_stats.stats(ROOT / "src")
    assert stats["unreferenced"] == []
    assert stats["settable_values"] <= 48
