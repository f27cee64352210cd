"""Shared infrastructure for the figure-regeneration benchmarks.

The modules under benchmarks/ regenerate the paper's tables and figures
on the full 36-benchmark suite (``test_figures.py``: one case per
figure-suite id) and print the same rows/series the paper reports.
``REPRO_BENCH_SUBSET=quick`` runs a 6-benchmark subset as a timing
smoke only: the paper's bands are set for the full suite, and
the subset does not hold all of them (Fig 23 fails), so the full-suite
``paper-claims`` CI job is the gate. Artefacts (compiled programs, traces, baseline cycles)
are shared through one session-scoped cache so the whole directory runs
in a few minutes.

The session cache is backed by the persistent on-disk artifact cache
(``REPRO_CACHE_DIR``; set it to ``0`` to force cold recomputation), so a
second figure sweep starts warm. Set ``REPRO_BENCH_WORKERS=N`` (0 = one
per CPU) to evaluate the whole suite's timing lattice across N processes
before the figure cases run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.experiments import suite_pairs
from repro.harness.runner import RunCache, default_benchmarks
from repro.harness.sweep import lattice, run_sweep
from repro.workloads.suites import quick_subset

FIGURES_PATH = Path(__file__).resolve().parent / "figures_output.txt"


@pytest.fixture(scope="session")
def bench_cache(bench_set) -> RunCache:
    cache = RunCache()
    workers_env = os.environ.get("REPRO_BENCH_WORKERS")
    if workers_env is not None:
        try:
            workers = int(workers_env)
        except ValueError:
            workers = 1
        if workers <= 0:
            workers = os.cpu_count() or 1
        if workers > 1:
            # Lane batches fan out across processes; their stats land
            # in the session cache (and the persistent one, if on).
            run_sweep(lattice(bench_set, suite_pairs()), cache=cache,
                      workers=workers)
    return cache


@pytest.fixture(scope="session")
def bench_set() -> list[str]:
    if os.environ.get("REPRO_BENCH_SUBSET") == "quick":
        return [p.uid for p in quick_subset()]
    return default_benchmarks()


@pytest.fixture(scope="session", autouse=True)
def _fresh_figures_file():
    """Start each benchmark session with an empty figures log."""
    FIGURES_PATH.write_text("")
    yield


def emit(title: str, text: str) -> None:
    """Print a figure's table (visible with -s) and append it to
    ``benchmarks/figures_output.txt`` so the regenerated figures survive
    pytest's output capture."""
    rendered = f"\n### {title}\n{text}\n"
    print(rendered, end="")
    with FIGURES_PATH.open("a") as fh:
        fh.write(rendered)
