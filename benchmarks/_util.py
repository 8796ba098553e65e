"""Reporting and timing helpers shared by the table benches.

All wall-clock measurement here goes through
:class:`repro.obs.Stopwatch` — the repo's single monotonic-timing
helper (``time.time()`` can step backwards, so it never times a
duration).
"""

from __future__ import annotations

from repro.obs import Stopwatch


def report(table) -> None:
    """Print an experiment table through pytest's captured stdout."""
    print()
    print(table.render())


def timed_report(func, *args, **kwargs):
    """Run a table-producing *func*, print the table and its wall time.

    For bench helpers that want a one-shot duration outside
    pytest-benchmark's statistical loop (e.g. smoke invocations).
    Returns the table.
    """
    result, seconds = Stopwatch.time_call(func, *args, **kwargs)
    report(result)
    print(f"({func.__name__}: {seconds * 1000.0:.1f} ms)")
    return result
