"""Benchmark the multi-lane sweep engine against the reference core.

Evaluates the full figure-suite design-point lattice twice, both times
from a completely cold in-memory cache (no persistent artifacts):

* ``solo``   — every timing point through the readable reference model,
  one ``InOrderCore`` run per point over the trace of one functional
  execution per compiler config;
* ``engine`` — the whole suite through ``figure_suite`` /
  ``run_sweep``: digest-level dedup of compiled programs, one shared
  decode pass per committed stream, K flat timing lanes per batch.

After both runs every design point is compared stat-for-stat (full
dataclass equality) between the two — the engine must be
byte-identical to the reference, not just faster. Results land in
``benchmarks/BENCH_sweep.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py           # all 36
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick   # 6-uid smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_PATH = HERE / "BENCH_sweep.json"

os.environ.setdefault("REPRO_CACHE_DIR", "off")
sys.path.insert(0, str(HERE.parent / "src"))

from repro.arch import CoreConfig, InOrderCore  # noqa: E402
from repro.compiler.config import turnpike_config  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    figure_suite,
    suite_pairs,
    suite_summary_configs,
)
from repro.harness.runner import RunCache, simulate  # noqa: E402
from repro.workloads.suites import all_profiles, quick_subset  # noqa: E402


def run_solo(uids: list[str], pairs: list) -> tuple[dict, float]:
    """Cold reference: every point on InOrderCore, every summary solo."""
    cache = RunCache(persistent=None)
    stats = {}
    start = time.perf_counter()
    for uid in uids:
        for compiler, hardware in pairs:
            trace = cache.prepared(uid, compiler).trace
            stats[uid, compiler, hardware] = InOrderCore(
                CoreConfig(), hardware
            ).run(trace)
        for config in suite_summary_configs():
            cache.prepared(uid, config).summary
        cache.prepared(uid, turnpike_config()).compiled  # fig26 sizes
        cache.baseline(uid).compiled
    return stats, time.perf_counter() - start


def run_engine(
    uids: list[str], workers: int | None
) -> tuple[RunCache, float]:
    """Cold engine run: the entire figure suite through run_sweep."""
    cache = RunCache(persistent=None)
    start = time.perf_counter()
    figure_suite(uids, cache=cache, workers=workers)
    return cache, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="6-benchmark smoke sweep instead of the full 36",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes (default: sequential)",
    )
    parser.add_argument(
        "--out", default=str(OUT_PATH),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    profiles = quick_subset() if args.quick else all_profiles()
    uids = sorted(p.uid for p in profiles)
    pairs = suite_pairs()
    points = len(uids) * len(pairs)
    print(
        f"lattice: {len(uids)} benchmarks x {len(pairs)} configs = "
        f"{points} timing points (+{len(suite_summary_configs())} summary "
        f"configs each)"
    )

    solo_stats, t_solo = run_solo(uids, pairs)
    print(f"solo  : {t_solo:7.1f}s  {points / t_solo:6.1f} points/s")
    engine_cache, t_engine = run_engine(uids, args.workers)
    print(f"engine: {t_engine:7.1f}s  {points / t_engine:6.1f} points/s")

    mismatches = 0
    for uid in uids:
        for compiler, hardware in pairs:
            a = solo_stats[uid, compiler, hardware]
            b = simulate(uid, compiler, hardware, cache=engine_cache)
            if a != b:
                mismatches += 1
                print(f"MISMATCH {uid} {compiler.name} {hardware}")
    identical = mismatches == 0
    print(f"lanes byte-identical to solo: {identical} "
          f"({points - mismatches}/{points})")

    payload = {
        "suite": {
            "benchmarks": len(uids),
            "configs": len(pairs),
            "timing_points": points,
            "quick": args.quick,
            "workers": args.workers,
        },
        "seconds": {
            "solo": round(t_solo, 2),
            "engine": round(t_engine, 2),
        },
        "points_per_second": {
            "solo": round(points / t_solo, 1),
            "engine": round(points / t_engine, 1),
        },
        "speedup": round(t_solo / t_engine, 2),
        "byte_identical": identical,
        "python": platform.python_version(),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"speedup: {payload['speedup']}x cold")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
