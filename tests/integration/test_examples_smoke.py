"""Smoke tests: the runnable examples must actually run.

Each example is executed in-process (``runpy``) with stdout captured;
the assertions pin the load-bearing lines of its output, not timings.
"""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


def test_grouped_analytics_runs():
    out = run_example("grouped_analytics.py")
    # The pushed-down aggregation is planned as a bounded Group ...
    assert "plan carries a row bound or a Group: True" in out
    # ... and the single-pattern COUNT took the index-backed path:
    # groups came straight off the graph indexes, nothing was folded.
    assert "accumulator rows folded: 0" in out
    assert "Top 10 actors by movie count:" in out
    assert "Top 5 actors by average film runtime:" in out
