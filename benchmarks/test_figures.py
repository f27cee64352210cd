"""The paper's figures and Table 1, one case per suite id.

Each case runs the figure's entry of :data:`repro.harness.experiments.
FIGURES` on the benchmark set, appends the entry's ``repro sweep`` text
to ``figures_output.txt`` under the paper's reference numbers, and
checks the figure's claims against the paper. Adding a figure to the
suite means one ``FIGURES`` entry plus one ``@claims`` function here.
"""

from __future__ import annotations

from collections.abc import Callable

import pytest

from repro.harness.experiments import (
    FIGURE_SUITE,
    FIGURES,
    breakdown_means,
    fig19_turnpike_wcdl,
)
from repro.sensors.acoustic import detection_latency_cycles, sensors_for_wcdl

from conftest import emit

#: Suite id -> (heading with the paper's numbers, claims).
CASES: dict[str, tuple[str, Callable]] = {}


def claims(fid: str, heading: str):
    def register(check: Callable) -> Callable:
        CASES[fid] = (heading, check)
        return check

    return register


@pytest.mark.parametrize("fid", FIGURE_SUITE)
def test_figure(fid, benchmark, bench_cache, bench_set):
    figure = FIGURES[fid]
    heading, check = CASES[fid]
    result = benchmark.pedantic(
        figure.run, args=(bench_set, bench_cache, None), rounds=1, iterations=1
    )
    emit(heading, figure.text(result))
    check(result, bench_set, bench_cache)


@claims("fig04", "Figure 4 — checkpoint ratio vs SB size "
        "(paper: 4.1% @ SB-40, 14.98% @ SB-4)")
def _fig04(result, bench_set, cache):
    # Shape: shrinking the SB meaningfully increases checkpoint traffic
    # (the paper sees 3.65x; our loop-dominated synthetics keep the
    # per-iteration IV checkpoints in both configs, compressing the
    # factor — see EXPERIMENTS.md).
    assert result[4].mean > 1.15 * result[40].mean
    # Bands: small-SB ratio lands in the paper's regime.
    assert 0.05 < result[4].mean < 0.30


@claims("fig14_15", "Figures 14 / 15 — ideal vs compact CLQ overhead "
        "(paper: compact within ~3% of ideal); WAR-free stores detected / "
        "all stores (paper: ideal ~10.6pp above compact)")
def _fig14_15(result, bench_set, cache):
    """Fast release + coloring only: the infinite address-matching CLQ
    vs Turnpike's compact 2-entry range-based one."""
    ideal = result["overhead"]["ideal"]
    compact = result["overhead"]["compact"]
    assert ideal.geomean <= compact.geomean + 1e-6
    assert compact.geomean - ideal.geomean < 0.05

    ideal = result["warfree_ratio"]["ideal"]
    compact = result["warfree_ratio"]["compact"]
    # Per-benchmark: ideal detection dominates compact (conservativeness).
    for uid in ideal.per_benchmark:
        assert ideal.per_benchmark[uid] >= compact.per_benchmark[uid] - 1e-9
    # A visible fraction of stores bypasses verification.
    assert compact.mean > 0.05


@claims("fig18", "Figure 18 — detection latency (cycles) vs sensor count "
        "(paper: 10 cycles @ 300 sensors / 2.5 GHz)")
def _fig18(series, bench_set, cache):
    # Anchors.
    assert 8 <= detection_latency_cycles(300, 2.5) <= 12
    assert 24 <= detection_latency_cycles(30, 2.5) <= 34
    # Monotone trends.
    for clock, points in series.items():
        latencies = [lat for _, lat in points]
        assert all(a > b for a, b in zip(latencies, latencies[1:]))
    # The inverse mapping is consistent.
    assert sensors_for_wcdl(10.5, 2.5) <= 320


@claims("fig19", "Figure 19 — Turnpike normalized exec time, WCDL 10..50 "
        "(paper: geomean 1.00 @ DL10 .. 1.14 @ DL50)")
def _fig19(result, bench_set, cache):
    geos = [result[w].geomean for w in sorted(result)]
    # Band: low overhead throughout.
    assert geos[0] < 1.10
    assert geos[-1] < 1.25
    # Overhead grows (weakly) with WCDL.
    assert geos[-1] >= geos[0] - 1e-6


@claims("fig20", "Figure 20 — Turnstile normalized exec time, WCDL 10..50 "
        "(paper: geomean 1.29 @ DL10 .. 1.84 @ DL50)")
def _fig20(result, bench_set, cache):
    geos = {w: result[w].geomean for w in result}
    # Bands: substantial overhead that grows with WCDL.
    assert geos[10] > 1.10
    assert geos[50] > 1.5
    ordered = [geos[w] for w in sorted(geos)]
    assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))
    # Cross-check vs Figure 19: Turnstile loses to Turnpike everywhere.
    turnpike = fig19_turnpike_wcdl(bench_set, wcdls=(10, 50), cache=cache)
    for w in (10, 50):
        for uid in result[w].per_benchmark:
            assert (
                turnpike[w].per_benchmark[uid]
                <= result[w].per_benchmark[uid] + 1e-6
            )


@claims("fig21", "Figure 21 — optimization ablation @ WCDL 10 "
        "(paper: 1.29 / 1.25 / 1.22 / 1.12 / 1.10 / 1.07 / 1.02 / 1.00)")
def _fig21(series, bench_set, cache):
    geos = {s.name: s.geomean for s in series}
    # Endpoints: Turnstile worst, Turnpike best.
    assert geos["Turnstile"] == max(geos.values())
    assert geos["Turnpike"] <= min(geos.values()) + 0.03
    # Each hardware step helps.
    assert geos["WAR-free Checking"] <= geos["Turnstile"] + 1e-6
    assert geos["Fast Release"] <= geos["WAR-free Checking"] + 1e-6
    # The compiler stack (pruning onward) gives the large drop.
    assert geos["Fast Release + Pruning"] < geos["Fast Release"]
    # Full Turnpike lands near zero overhead.
    assert geos["Turnpike"] < 1.10


@claims("fig22", "Figure 22 — SB size sensitivity @ WCDL 10 "
        "(paper: Turnstile 20/18/13/11/9% @ SB 8-40; Turnpike flat 0%)")
def _fig22(result, bench_set, cache):
    ts = result["turnstile"]
    tp = result["turnpike"]
    # Turnstile improves monotonically with SB size.
    geos = [ts[s].geomean for s in sorted(ts)]
    assert all(a >= b - 0.01 for a, b in zip(geos, geos[1:]))
    # Headline: Turnpike at SB-4 beats Turnstile at SB-40.
    assert tp[4].geomean <= ts[40].geomean + 0.02
    # Turnpike is flat in SB size.
    tp_geos = [tp[s].geomean for s in sorted(tp)]
    assert max(tp_geos) - min(tp_geos) < 0.05


@claims("fig23", "Figure 23 — store breakdown "
        "(paper means: pruned 21%, LICM 1.4%, RA 1.7%, LIVM 5%, "
        "released ~39%)")
def _fig23(breakdown, bench_set, cache):
    means = breakdown_means(breakdown)
    # Pruning removes a substantial share of checkpoints.
    assert means["pruned"] > 0.05
    # Fast release (colored + WAR-free) covers a large fraction.
    assert means["colored"] + means["warfree"] > 0.20
    # Every category is a valid fraction.
    for cat, value in means.items():
        assert 0.0 <= value <= 1.0, cat


@claims("fig24", "Figure 24 — dynamic CLQ entries populated "
        "(paper: average ~1, maximum 3-4)")
def _fig24(occupancy, bench_set, cache):
    avgs = [avg for avg, _ in occupancy.values()]
    maxes = [peak for _, peak in occupancy.values()]
    # Demand is a few entries on average; short-region benchmarks keep
    # more regions in flight than the paper's ~11-instruction regions, so
    # the bound here is looser than the paper's 3-4 maximum.
    assert sum(avgs) / len(avgs) < 4.5
    assert max(maxes) <= 12
    assert max(maxes) >= 2  # some benchmark keeps multiple regions in flight


@claims("fig25", "Figure 25 — CLQ-2 vs CLQ-4 (paper: nearly identical)")
def _fig25(result, bench_set, cache):
    assert abs(result[2].geomean - result[4].geomean) < 0.03
    for uid in result[2].per_benchmark:
        assert (
            abs(result[2].per_benchmark[uid] - result[4].per_benchmark[uid])
            < 0.10
        )


@claims("fig26", "Figure 26 — region size (instr) and code growth "
        "(paper: ~11.2 instr/region, +0.4% code average)")
def _fig26(data, bench_set, cache):
    sizes = [size for size, _ in data.values()]
    growths = [growth for _, growth in data.values()]
    mean_size = sum(sizes) / len(sizes)
    # Regions are small (a handful to a few dozen instructions); LICM's
    # relaxed store-free loops stretch a few benchmarks past the paper's
    # ~11-instruction average.
    assert 4.0 < mean_size < 64.0
    # Code growth is modest but real (checkpoints are instructions here;
    # the paper's smaller growth excludes metadata-encoded boundaries).
    assert all(0.0 <= g for g in growths)
    assert sum(growths) / len(growths) < 1.0


@claims("table1", "Table 1 — hardware cost comparison")
def _table1(table, bench_set, cache):
    """Paper: Turnpike (color maps + 2-entry CLQ) adds 9.8% area and 9.7%
    energy of a 4-entry SB; a 40-entry SB costs ~5x the 4-entry one."""
    rows = {row.name: row for row in table.rows()}
    sb4 = rows["4-entry SB (CAM)"]
    assert sb4.area_um2 == pytest.approx(621.28, rel=0.01)
    assert sb4.dynamic_energy_pj == pytest.approx(0.43099, rel=0.01)

    area_ratio, energy_ratio = table.turnpike_vs_sb4
    assert area_ratio == pytest.approx(0.098, abs=0.012)
    assert energy_ratio == pytest.approx(0.097, abs=0.012)

    area_ratio, energy_ratio = table.sb40_vs_sb4
    assert area_ratio == pytest.approx(5.04, rel=0.03)
    assert energy_ratio == pytest.approx(4.91, rel=0.05)
