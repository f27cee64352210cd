"""Golden-trace and figure regression fixtures.

For six representative benchmarks (the quick subset) this test pins a
compact :class:`~repro.runtime.trace.TraceSummary` snapshot — dynamic
instruction mix, store disposition, region count, step total — for both
the baseline and the Turnpike build. Any compiler or interpreter change
that shifts dynamic behaviour shows up as a readable JSON diff here
instead of as a silent drift in the figure sweeps.

``figures-quick.json`` pins every number of every figure and of Table 1
on the same subset: the ``repro sweep --json`` output, minus its wall
time. A refactor that moves one geomean in its third decimal shows up
as a reviewed diff instead of slipping inside a paper-claim band.

``campaign-bzip2.json`` and ``avf-radix.json`` pin the injection
taxonomy and one AVF table: the ``repro inject --export`` bytes of a
small enumerated campaign and of a ``--sample`` campaign. Both must come
out identical with snapshot acceleration on and off, so a change to the
golden recorder or the convergence checker cannot move them even where
both paths would move together.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

then review and commit the changed files under tests/fixtures/goldens/.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_baseline, compile_program
from repro.runtime.fastsim import execute_fast
from repro.runtime.trace import TraceSummary
from repro.workloads.generator import build_workload
from repro.workloads.suites import profile, quick_subset

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "goldens"
GOLDEN_UIDS = [p.uid for p in quick_subset()]
FIGURES_GOLDEN = GOLDEN_DIR / "figures-quick.json"
#: golden file -> ``repro inject`` arguments whose ``--export`` it holds.
CAMPAIGN_GOLDENS = {
    "campaign-bzip2": ["CPU2006.bzip2", "--count", "12", "--seed", "7"],
    "avf-radix": ["SPLASH3.radix", "--count", "1", "--seed", "7",
                  "--targets", "register", "--variants", "turnpike",
                  "--sample"],
}
SRC = Path(__file__).resolve().parent.parent / "src"


def _summarize(trace, steps: int) -> dict:
    summary = TraceSummary(trace)
    return {
        "steps": steps,
        "total": summary.total,
        "committed": summary.committed,
        "by_kind": summary.by_kind,
        "loads": summary.loads,
        "regular_stores": summary.regular_stores,
        "app_stores": summary.app_stores,
        "spill_stores": summary.spill_stores,
        "checkpoints": summary.checkpoints,
        "boundaries": summary.boundaries,
    }


def build_snapshot(uid: str) -> dict:
    """The golden content for one benchmark (deterministic)."""
    workload = build_workload(profile(uid))
    snapshot: dict[str, dict] = {}
    for scheme, compiled in (
        ("baseline", compile_baseline(workload.program)),
        ("turnpike", compile_program(workload.program, turnpike_config())),
    ):
        result = execute_fast(
            compiled.program, workload.fresh_memory(), collect_trace=True
        )
        snapshot[scheme] = _summarize(result.trace, result.steps)
    return snapshot


def _golden_path(uid: str) -> Path:
    return GOLDEN_DIR / f"{uid}.json"


@pytest.mark.parametrize("uid", GOLDEN_UIDS)
def test_golden_trace_summary(uid, update_goldens):
    snapshot = build_snapshot(uid)
    path = _golden_path(uid)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden fixture {path.name}; run pytest with "
        f"--update-goldens to create it"
    )
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"{uid}: dynamic behaviour diverged from the golden snapshot; "
        f"if intentional, regenerate with --update-goldens and commit"
    )


def test_goldens_cover_quick_subset():
    """Every quick-subset benchmark has a fixture, the figures have one,
    and nothing extra."""
    have = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert have == {*GOLDEN_UIDS, FIGURES_GOLDEN.stem, *CAMPAIGN_GOLDENS}


def _repro(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro <args>``, cold: artifact cache off, one process."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE_DIR": "0",
           "REPRO_WORKERS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _quick_sweep() -> dict:
    """``repro sweep --benchmarks <quick subset> --json`` without
    ``elapsed_seconds``."""
    proc = _repro("sweep", "--benchmarks", ",".join(GOLDEN_UIDS), "--json")
    payload = json.loads(proc.stdout)
    del payload["elapsed_seconds"]
    return payload


def _assert_matches(got, want, path="$"):
    """Keys and strings exactly, numbers to 1e-9 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=1e-9), path
    else:
        assert got == want, path


def test_golden_figures(update_goldens):
    payload = _quick_sweep()
    if update_goldens:
        FIGURES_GOLDEN.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return
    _assert_matches(payload, json.loads(FIGURES_GOLDEN.read_text()))


@pytest.mark.parametrize("accel", ["off", "on"])
@pytest.mark.parametrize("name", sorted(CAMPAIGN_GOLDENS))
def test_golden_campaign(name, accel, tmp_path, update_goldens):
    """The export is byte-identical to the golden with either setting;
    ``--update-goldens`` rewrites it from the unaccelerated run."""
    export = tmp_path / "export.json"
    _repro("inject", *CAMPAIGN_GOLDENS[name], "--accel", accel,
           "--export", str(export))
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens and accel == "off":
        path.write_bytes(export.read_bytes())
        return
    assert export.read_bytes() == path.read_bytes(), (
        f"{name} with --accel {accel} diverged from the golden export"
    )
