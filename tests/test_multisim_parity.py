"""Differential parity wall for the multi-lane sweep engine.

:mod:`repro.runtime.multisim` executes the shared committed stream once
(fetch/decode/functional work, branch outcomes and memory latencies
baked into a flat feed) and advances K independent timing lanes over it.
Every lane is required to be *byte-identical* — full
:class:`~repro.arch.stats.SimStats` dataclass equality, which covers the
cache counters, spill/app store split, forced closures, and
misprediction counts that ``as_dict`` omits — to a solo
:class:`~repro.arch.core.InOrderCore` run of the same trace under the
same configs.

The wall has three layers:

1. every benchmark of the 36-entry suite, Turnpike scheme, one lane;
2. the quick subset under a wide hardware-variant fan (ideal/compact
   CLQ, CLQ sizes, WCDLs, Turnstile, disabled resilience) in a single
   ``run_lanes`` call, so the shared-decode grouping itself is
   exercised;
3. the engine end-to-end: ``run_sweep`` against solo ``InOrderCore``
   runs, including digest-level dedup, warm-cache resolution and the
   process-pool path.

Production timing (``simulate`` as well as ``run_sweep``) runs on the
lane kernel, so ``InOrderCore`` is the independent reference here.
"""

from __future__ import annotations

import pytest

from repro.arch import CoreConfig, InOrderCore, ResilienceHardwareConfig
from repro.compiler.config import turnpike_config, turnstile_config
from repro.harness.runner import (
    RunCache,
    _baseline_config,
    simulate,
    turnpike_scheme,
    turnstile_scheme,
)
from repro.harness.sweep import DesignPoint, lattice, plan_sweep, run_sweep
from repro.runtime.multisim import decode_feed, run_lanes
from repro.workloads.suites import all_profiles, quick_subset

ALL_UIDS = [p.uid for p in all_profiles()]
QUICK_UIDS = [p.uid for p in quick_subset()]

# One in-memory cache for the whole module: traces compile once, and the
# engine tests get the exact accessors production uses.
_CACHE = RunCache(persistent=None)


def _trace(uid: str, compiler):
    return _CACHE.prepared(uid, compiler).trace


def _solo(trace, hw: ResilienceHardwareConfig, core: CoreConfig | None = None):
    return InOrderCore(core or CoreConfig(), hw).run(trace)


class TestLaneParityFullSuite:
    """Every benchmark, Turnpike scheme: lane == solo, all fields."""

    @pytest.mark.parametrize("uid", ALL_UIDS)
    def test_turnpike_lane_matches_solo(self, uid):
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        trace = _trace(uid, turnpike_config())
        ref = _solo(trace, hw)
        (lane,) = run_lanes(trace, [(CoreConfig(), hw)])
        assert lane == ref  # dataclass eq: every field, cache dict included


# The hardware fan deliberately crosses every flat-kernel specialisation:
# ideal vs compact CLQ, CLQ capacity, coloring on/off, WCDL spread, tiny
# SB, and resilience fully disabled (the baseline decode group).
_VARIANTS = [
    ResilienceHardwareConfig.turnpike(wcdl=10),
    ResilienceHardwareConfig.turnpike(wcdl=50),
    ResilienceHardwareConfig.turnpike(wcdl=10, clq_kind="ideal"),
    ResilienceHardwareConfig.turnpike(wcdl=10, clq_size=4),
    ResilienceHardwareConfig.turnstile(wcdl=10),
    ResilienceHardwareConfig.turnstile(wcdl=30),
    ResilienceHardwareConfig.baseline(),
]


class TestSharedDecodeLaneFan:
    """One run_lanes call, many configs: grouping must not leak state."""

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    def test_variant_fan_matches_solo(self, uid):
        trace = _trace(uid, turnpike_config())
        lanes = [(CoreConfig(), hw) for hw in _VARIANTS]
        feeds = {}
        stats = run_lanes(trace, lanes, feeds)
        assert len(stats) == len(_VARIANTS)
        for hw, lane in zip(_VARIANTS, stats):
            assert lane == _solo(trace, hw), hw
        # Exactly two decode groups: resilient and baseline. The feed
        # dict is the witness that decode ran once per group, not once
        # per lane.
        assert {enabled for _, enabled in feeds} == {True, False}
        assert len(feeds) == 2

    def test_feed_reuse_across_calls_is_identical(self):
        trace = _trace(QUICK_UIDS[0], turnpike_config())
        hw = ResilienceHardwareConfig.turnpike(wcdl=20)
        feeds = {}
        (first,) = run_lanes(trace, [(CoreConfig(), hw)], feeds)
        # Second call with the carried feeds dict must not re-decode and
        # must produce the same bytes.
        (second,) = run_lanes(trace, [(CoreConfig(), hw)], feeds)
        assert first == second

    def test_decode_feed_cache_stats_match_solo(self):
        uid = QUICK_UIDS[0]
        trace = _trace(uid, turnpike_config())
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        _, cache_stats, _ = decode_feed(trace, CoreConfig(), resilient=True)
        assert cache_stats == _solo(trace, hw).cache


class TestEngineEndToEnd:
    """run_sweep == the reference core, with dedup and warm-path
    behaviour."""

    def test_run_sweep_matches_simulate(self):
        uids = QUICK_UIDS[:2]
        pairs = [
            turnpike_scheme(),
            turnstile_scheme(),
            (_baseline_config(), ResilienceHardwareConfig.baseline()),
        ]
        points = lattice(uids, pairs)
        engine_cache = RunCache(persistent=None)
        result = run_sweep(points, cache=engine_cache)
        for point in points:
            trace = _trace(point.uid, point.compiler)
            ref = InOrderCore(point.core, point.hardware).run(trace)
            assert result[point] == ref, point

    def test_process_pool_matches_serial(self, monkeypatch):
        """``workers=2`` ships lane batches to ``_mp_run_batch`` in worker
        processes; the stats must equal the in-process path's."""
        import repro.harness.sweep as sweep_mod

        # Workers resolve traces through GLOBAL_CACHE: keep its disk
        # layer off in forked and freshly started children alike.
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.setattr(sweep_mod.GLOBAL_CACHE, "persistent", None)
        pairs = [
            turnpike_scheme(),
            turnstile_scheme(),
            (_baseline_config(), ResilienceHardwareConfig.baseline()),
        ]
        points = lattice(QUICK_UIDS[:2], pairs)
        plan = plan_sweep(points, RunCache(persistent=None))
        assert len([b for b in plan.batches if b.lanes]) > 1  # pool path
        serial = run_sweep(points, cache=RunCache(persistent=None), workers=1)
        pooled = run_sweep(points, cache=RunCache(persistent=None), workers=2)
        assert pooled == serial
        for point in points:
            assert pooled[point] == serial[point], point

    def test_digest_equal_configs_share_one_lane(self):
        uid = QUICK_UIDS[0]
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        a = turnpike_config()
        b = turnpike_config().with_name("renamed-turnpike")
        points = [DesignPoint(uid, a, hw), DesignPoint(uid, b, hw)]
        cache = RunCache(persistent=None)
        plan = plan_sweep(points, cache)
        # Same structural program, same hardware: one batch, one lane,
        # one content-addressed key for both points.
        assert len(plan.batches) == 1
        assert plan.planned_lanes == 1
        assert plan.keys[points[0]] == plan.keys[points[1]]
        result = run_sweep(points, cache=cache)
        assert result[points[0]] == result[points[1]]

    def test_warm_cache_resolves_without_batches(self):
        uid = QUICK_UIDS[0]
        points = lattice([uid], [turnpike_scheme()])
        cache = RunCache(persistent=None)
        first = run_sweep(points, cache=cache)
        plan = plan_sweep(points, cache)
        assert not plan.batches
        second = run_sweep(points, cache=cache)
        assert first == second

    def test_solo_accessors_hit_engine_results(self, monkeypatch):
        """After a sweep, simulate() must be a pure cache hit."""
        import repro.harness.runner as runner_mod

        uid = QUICK_UIDS[0]
        compiler, hw = turnpike_scheme()
        cache = RunCache(persistent=None)
        result = run_sweep(lattice([uid], [(compiler, hw)]), cache=cache)

        def boom(*args, **kwargs):
            raise AssertionError("solo recompute after sweep")

        monkeypatch.setattr(runner_mod, "run_lanes", boom)
        stats = simulate(uid, compiler, hw, cache=cache)
        assert stats == result[DesignPoint(uid, compiler, hw)]

    def test_results_are_defensive_copies(self):
        uid = QUICK_UIDS[0]
        point = DesignPoint(uid, *turnpike_scheme())
        cache = RunCache(persistent=None)
        first = run_sweep([point], cache=cache)[point]
        first.cycles = -1.0
        first.cache["l1d_hits"] = -1
        second = run_sweep([point], cache=cache)[point]
        assert second.cycles != -1.0
        assert second.cache.get("l1d_hits") != -1

    def test_persistent_layer_round_trip(self, tmp_path):
        from repro.harness.artifacts import ArtifactCache

        uid = QUICK_UIDS[0]
        points = lattice([uid], [turnpike_scheme()])
        disk = ArtifactCache(tmp_path / "sweep-cache")
        warm = run_sweep(points, cache=RunCache(persistent=disk))
        # A fresh process-level cache over the same disk layer resolves
        # the whole plan from artifacts.
        cold = RunCache(persistent=disk)
        plan = plan_sweep(points, cold)
        assert not plan.batches
        again = run_sweep(points, cache=cold)
        assert again == warm
