"""The persistent artifact cache, RunCache layering, and sharding.

Covers the tentpole's storage/concurrency contract:

* ArtifactCache round-trips traces, stats and program digests,
  tolerates corrupt files, and honours the ``REPRO_CACHE_DIR`` disable
  switch;
* a warm persistent cache serves RunCache without recompiling or
  re-simulating anything (the monkeypatched build, compile and run
  functions raise if touched), also for a config only digest-equal to
  the one that filled it;
* ``prepared()`` under thread contention with interleaved ``clear()``
  never corrupts state, and ``clear()`` leaves the disk layer intact;
* ``repro cache warm`` fills the disk layer for every scheme point;
* shard-merge arithmetic (``SimStats.merge`` / ``merge_stats`` /
  ``CLQStats.merge``) is exact.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.arch.clq import CLQStats
from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats, merge_stats
from repro.compiler.config import turnpike_config
from repro.harness import artifacts
from repro.harness.artifacts import ArtifactCache
from repro.harness.runner import (
    RunCache,
    _baseline_config,
    default_schemes,
    resolve_workers,
    turnpike_scheme,
)

UID = "CPU2006.mcf"


@pytest.fixture
def disk_cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestArtifactCache:
    def test_trace_roundtrip(self, disk_cache):
        trace = [(0, 1, 2, 3, -1, -1, 0), (4, -1, 5, -1, 4096, 2, 1)]
        key = disk_cache.trace_key(UID, "0123456789abcdef")
        assert disk_cache.load_trace(key) is None
        disk_cache.store_trace(key, trace)
        assert disk_cache.load_trace(key) == trace

    def test_stats_roundtrip(self, disk_cache):
        stats = SimStats(
            cycles=123.0, instructions=45, cache={"hits": 7, "misses": 2}
        )
        key = disk_cache.stats_key(
            UID, "0123456789abcdef", ResilienceHardwareConfig.baseline(),
            CoreConfig(),
        )
        assert disk_cache.load_stats(key) is None
        disk_cache.store_stats(key, stats)
        assert disk_cache.load_stats(key) == stats

    def test_digest_roundtrip(self, disk_cache):
        key = disk_cache.digest_key(UID, _baseline_config())
        assert disk_cache.load_digest(key) is None
        disk_cache.store_digest(key, "0123456789abcdef")
        assert disk_cache.load_digest(key) == "0123456789abcdef"

    def test_corrupt_artifact_is_a_miss(self, disk_cache):
        trace_key = disk_cache.trace_key(UID, "0123456789abcdef")
        stats_key = disk_cache.stats_key(
            UID, "0123456789abcdef", ResilienceHardwareConfig.baseline(),
            CoreConfig(),
        )
        (disk_cache.root / f"trace-{trace_key}.pkl").write_bytes(b"garbage")
        (disk_cache.root / f"stats-{stats_key}.json").write_text("{nope")
        assert disk_cache.load_trace(trace_key) is None
        assert disk_cache.load_stats(stats_key) is None

    @pytest.mark.parametrize("data", [
        b"", b"0123456789abcde", b"0123456789abcdef0", b"0123456789abcdeg",
        b"0123456789ABCDEF", b"01234567\n89abcdef", b"\xff" * 16,
    ], ids=["empty", "short", "long", "non-hex", "upper", "split", "binary"])
    def test_corrupt_digest_is_a_miss(self, disk_cache, data):
        key = disk_cache.digest_key(UID, _baseline_config())
        (disk_cache.root / f"digest-{key}.txt").write_bytes(data)
        assert disk_cache.load_digest(key) is None

    def test_corrupt_digest_recompiles(self, disk_cache):
        """A RunCache over a corrupt digest file compiles, gets the right
        digest and rewrites the file."""
        config = _baseline_config()
        want = RunCache(persistent=None).program_digest(UID, config)
        key = disk_cache.digest_key(UID, config)
        (disk_cache.root / f"digest-{key}.txt").write_text("0" * 15)
        assert RunCache(persistent=disk_cache).program_digest(UID, config) == want
        assert disk_cache.load_digest(key) == want

    def test_keys_depend_on_configs(self):
        base = _baseline_config()
        tp_c, tp_h = turnpike_scheme()
        a, b = "0123456789abcdef", "fedcba9876543210"
        assert ArtifactCache.trace_key(UID, a) != ArtifactCache.trace_key(UID, b)
        assert ArtifactCache.trace_key(UID, a) != ArtifactCache.trace_key(
            "CPU2006.gcc", a
        )
        assert ArtifactCache.stats_key(
            UID, a, tp_h, CoreConfig()
        ) != ArtifactCache.stats_key(
            UID, a, ResilienceHardwareConfig.baseline(), CoreConfig()
        )
        assert ArtifactCache.stats_key(
            UID, a, tp_h, CoreConfig()
        ) != ArtifactCache.stats_key(UID, b, tp_h, CoreConfig())
        assert ArtifactCache.digest_key(UID, base) != ArtifactCache.digest_key(
            UID, tp_c
        )
        # One key space per kind: equal parts never collide across kinds.
        assert ArtifactCache.trace_key(UID, a) != ArtifactCache.digest_key(UID, a)

    def test_clear_and_info(self, disk_cache, monkeypatch, capsys):
        disk_cache.store_trace("t" * 40, [(0, -1, -1, -1, -1, -1, 0)])
        disk_cache.store_stats("s" * 40, SimStats(cycles=1.0))
        disk_cache.store_digest("d" * 40, "0123456789abcdef")
        disk_cache.store_vuln("v" * 40, {"cells": []})
        # A stray file and a retired backend's module are not artifacts.
        (disk_cache.root / "notes.txt").write_text("stray")
        (disk_cache.root / f"codegen-{'c' * 40}.py").write_text("# old")
        info = disk_cache.info()
        assert info["artifacts"] == 4
        assert (info["traces"], info["stats"], info["digests"],
                info["goldens"], info["vulns"]) == (1, 1, 1, 0, 1)
        assert "codegens" not in info
        assert [kind for kind, _, _ in disk_cache.entries()] == [
            "digest", "stats", "trace", "vuln",
        ]
        from repro.__main__ import main as cli_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(disk_cache.root))
        assert cli_main(["cache", "info"]) == 0
        assert ("(1 traces, 1 stats, 1 digests, 0 goldens, 1 vulns)"
                in capsys.readouterr().out)
        # clear() (hence prune) still reclaims the legacy module.
        assert disk_cache.clear() == 5
        assert disk_cache.artifact_paths() == []
        assert sorted(p.name for p in disk_cache.root.iterdir()) == ["notes.txt"]

    def test_default_disabled_by_env(self, monkeypatch):
        for value in ("0", "off", "none", ""):
            monkeypatch.setenv("REPRO_CACHE_DIR", value)
            assert ArtifactCache.default() is None

    def test_default_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = ArtifactCache.default()
        assert cache is not None
        assert cache.root == tmp_path / "c"

    def test_code_digest_stable(self):
        assert artifacts.code_digest() == artifacts.code_digest()
        assert len(artifacts.code_digest()) == 64


def _hammer_stats(root: str, key: str, rounds: int) -> None:
    """Child-process body: repeatedly rewrite one stats key."""
    cache = ArtifactCache(root)
    for i in range(rounds):
        cache.store_stats(
            key, SimStats(cycles=float(i + 1), instructions=i, cache={})
        )


def _hammer_trace(root: str, key: str, rounds: int) -> None:
    """Child-process body: repeatedly rewrite one trace key."""
    cache = ArtifactCache(root)
    trace = [(i, -1, -1, -1, -1, -1, 0) for i in range(64)]
    for _ in range(rounds):
        cache.store_trace(key, trace)


class TestConcurrentAccess:
    """Multiple *processes* writing the same key must never corrupt it:
    every concurrent load observes either a miss or one writer's
    complete artifact, never interleaved bytes. This is the contract
    the service's shared worker pool (and ``repro serve`` generally)
    leans on."""

    def _spawn(self, target, root, key, procs=3, rounds=40):
        ctx = multiprocessing.get_context()
        children = [
            ctx.Process(target=target, args=(str(root), key, rounds))
            for _ in range(procs)
        ]
        for child in children:
            child.start()
        return children

    def test_same_key_stats_writers_never_corrupt(self, disk_cache):
        key = "f" * 40
        children = self._spawn(_hammer_stats, disk_cache.root, key)
        try:
            # hammer loads while the writers race each other
            for _ in range(300):
                stats = disk_cache.load_stats(key)
                if stats is not None:
                    assert stats.cycles == float(stats.instructions + 1)
                if not any(c.is_alive() for c in children):
                    break
        finally:
            for child in children:
                child.join(timeout=60)
        assert all(c.exitcode == 0 for c in children)
        final = disk_cache.load_stats(key)
        assert final is not None and final.cycles == 40.0
        # no temp-file litter left behind by the atomic-write protocol
        assert not list(disk_cache.root.glob(".tmp-*"))

    def test_same_key_trace_writers_never_corrupt(self, disk_cache):
        key = "e" * 40
        children = self._spawn(_hammer_trace, disk_cache.root, key, rounds=20)
        try:
            for _ in range(300):
                trace = disk_cache.load_trace(key)
                if trace is not None:
                    assert len(trace) == 64
                    assert trace[63][0] == 63
                if not any(c.is_alive() for c in children):
                    break
        finally:
            for child in children:
                child.join(timeout=60)
        assert all(c.exitcode == 0 for c in children)
        assert len(disk_cache.load_trace(key)) == 64


class TestEntriesAndInfoDeterminism:
    def test_entries_sorted_and_complete(self, disk_cache):
        # insertion order deliberately scrambled vs (kind, key) order
        disk_cache.store_trace("b" * 40, [(0, -1, -1, -1, -1, -1, 0)])
        disk_cache.store_stats("z" * 40, SimStats(cycles=1.0))
        disk_cache.store_stats("a" * 40, SimStats(cycles=2.0))
        entries = disk_cache.entries()
        assert [(k, key) for k, key, _ in entries] == [
            ("stats", "a" * 40),
            ("stats", "z" * 40),
            ("trace", "b" * 40),
        ]
        assert all(size > 0 for _, _, size in entries)
        assert entries == disk_cache.entries()  # stable across calls

    def test_cache_info_cli_is_diffable(self, monkeypatch, capsys, tmp_path):
        """`repro cache info --list --json` must emit byte-identical
        output across invocations so CI can diff it."""
        from repro.__main__ import main as cli_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        cache = ArtifactCache.default()
        cache.store_stats("c" * 40, SimStats(cycles=3.0))
        cache.store_trace("d" * 40, [(1, -1, -1, -1, -1, -1, 0)])

        outputs = []
        for _ in range(2):
            assert cli_main(["cache", "info", "--list", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert [e["key"] for e in payload["entries"]] == ["c" * 40, "d" * 40]
        assert payload["artifacts"] == 2
        # and the plain-text listing is sorted the same way
        assert cli_main(["cache", "info", "--list"]) == 0
        text = capsys.readouterr().out
        assert text.index("c" * 40) < text.index("d" * 40)


class TestRunCachePersistence:
    def test_warm_disk_cache_skips_recompute(self, disk_cache, monkeypatch):
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        cold = RunCache(persistent=disk_cache)
        want = cold.stats(UID, config, hardware)

        # A fresh in-process cache over the same disk layer must serve
        # both the stats and the prepared trace without ever building a
        # workload, compiling, or running the timing kernel again.
        import repro.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("recompute attempted on a warm cache")

        monkeypatch.setattr(runner_mod, "build_workload", boom)
        monkeypatch.setattr(runner_mod, "compile_baseline", boom)
        monkeypatch.setattr(runner_mod, "compile_program", boom)
        monkeypatch.setattr(runner_mod, "run_lanes", boom)
        warm = RunCache(persistent=disk_cache)
        assert warm.stats(UID, config, hardware) == want
        run = warm.prepared(UID, config)
        assert run.trace  # served from disk
        assert run.summary.total == len(run.trace)

    def test_digest_equal_config_served_from_disk(self, disk_cache, monkeypatch):
        """One content address across processes: a config first seen by
        a later process is served the trace and stats an earlier process
        computed under a digest-equal config, with nothing rebuilt."""
        hardware = ResilienceHardwareConfig.turnpike(wcdl=10)
        first = turnpike_config()
        renamed = turnpike_config().with_name("renamed")
        cold = RunCache(persistent=disk_cache)
        want = cold.stats(UID, first, hardware)
        trace = cold.prepared(UID, first).trace
        # The planner learns every config's digest; only one executes.
        assert cold.program_digest(UID, renamed) == cold.program_digest(UID, first)

        import repro.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("recompute attempted on a warm cache")

        for name in ("build_workload", "compile_baseline", "compile_program",
                     "execute_fast", "run_lanes"):
            monkeypatch.setattr(runner_mod, name, boom)
        warm = RunCache(persistent=disk_cache)
        assert warm.prepared(UID, renamed).trace == trace
        assert warm.stats(UID, renamed, hardware) == want
        assert warm.peek_stats(UID, renamed, hardware) == want

    def test_disk_served_run_compiles_once(self, disk_cache, monkeypatch):
        """``.compiled`` and ``.workload`` of a run served from disk come
        from the RunCache memos: one compile per (uid, config)."""
        config = turnpike_config()
        RunCache(persistent=disk_cache).prepared(UID, config)

        import repro.harness.runner as runner_mod

        compiles = []
        real = runner_mod.compile_program

        def counting(program, cfg, **kwargs):
            compiles.append(cfg)
            return real(program, cfg, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_program", counting)
        warm = RunCache(persistent=disk_cache)
        run = warm.prepared(UID, config)
        assert compiles == []  # digest and trace both from disk
        assert run.compiled is run.compiled
        assert run.compiled is warm.compiled_program(UID, config)
        assert run.workload is warm.workload(UID)
        assert compiles == [config]

    def test_prepared_run_does_not_keep_its_cache_alive(self):
        """No reference cycle between a RunCache and its runs: dropping
        the cache frees it (and its traces) without the cyclic GC."""
        import gc
        import weakref

        cache = RunCache(persistent=None)
        run = cache.prepared(UID, _baseline_config())
        ref = weakref.ref(cache)
        gc.disable()
        try:
            del cache
            assert ref() is None
        finally:
            gc.enable()
        assert run.compiled.program is not None  # degrades, still works

    def test_clear_keeps_disk_layer(self, disk_cache):
        config = _baseline_config()
        cache = RunCache(persistent=disk_cache)
        cache.prepared(UID, config)
        n_artifacts = len(disk_cache.artifact_paths())
        assert n_artifacts > 0
        cache.clear()
        assert not cache._workloads
        assert not cache._prepared
        assert not cache._stats
        assert len(disk_cache.artifact_paths()) == n_artifacts

    def test_stats_returns_defensive_copies(self):
        cache = RunCache(persistent=None)
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        first = cache.stats(UID, config, hardware)
        first.cycles = -1.0
        first.cache["poison"] = 1
        second = cache.stats(UID, config, hardware)
        assert second.cycles > 0
        assert "poison" not in second.cache

    def test_concurrent_prepared_and_clear(self, disk_cache):
        """Thread-hammer: concurrent prepared()/stats()/clear() must not
        corrupt the cache or produce divergent results."""
        cache = RunCache(persistent=disk_cache)
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        want = cache.stats(UID, config, hardware)
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker():
            try:
                barrier.wait()
                for _ in range(5):
                    run = cache.prepared(UID, config)
                    assert run.uid == UID and run.trace
                    assert cache.stats(UID, config, hardware) == want
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def clearer():
            try:
                barrier.wait()
                for _ in range(10):
                    cache.clear()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_prepared_identity_memoised(self):
        cache = RunCache(persistent=None)
        config = _baseline_config()
        assert cache.prepared(UID, config) is cache.prepared(UID, config)


class TestSharding:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        assert resolve_workers(2) == 2
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert resolve_workers(None) == 1
        assert resolve_workers(0) >= 1  # one per CPU

    def test_warm_suite_quick(self, monkeypatch, tmp_path, capsys):
        """``repro cache warm`` fills the disk cache the figures read."""
        import repro.harness.runner as runner_mod
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm-cache"))
        monkeypatch.setattr(runner_mod, "default_benchmarks", lambda: [UID])
        assert main(["cache", "warm", "--workers", "1"]) == 0
        assert capsys.readouterr().out.startswith(
            "warmed 3 (benchmark, scheme) pairs"
        )
        cache = RunCache(persistent=ArtifactCache(tmp_path / "warm-cache"))
        for _name, compiler, hardware in default_schemes():
            stats = cache.peek_stats(UID, compiler, hardware)
            assert stats is not None and stats.cycles > 0


class TestShardMerge:
    def test_simstats_merge_sums_and_weights(self):
        a = SimStats(
            cycles=100.0, instructions=50, sb_stall_cycles=4.0,
            stores_total=5, regions=10, clq_occupancy_avg=2.0,
            clq_occupancy_max=4, branch_mispredictions=3,
            cache={"hits": 10},
        )
        b = SimStats(
            cycles=50.0, instructions=25, sb_stall_cycles=1.0,
            stores_total=2, regions=30, clq_occupancy_avg=4.0,
            clq_occupancy_max=3, branch_mispredictions=1,
            cache={"hits": 5, "misses": 2},
        )
        merged = merge_stats([a, b])
        assert merged.cycles == 150.0
        assert merged.instructions == 75
        assert merged.sb_stall_cycles == 5.0
        assert merged.stores_total == 7
        assert merged.regions == 40
        # region-weighted: (2*10 + 4*30) / 40
        assert merged.clq_occupancy_avg == pytest.approx(3.5)
        assert merged.clq_occupancy_max == 4
        assert merged.branch_mispredictions == 4
        assert merged.cache == {"hits": 15, "misses": 2}
        # merge_stats builds a fresh object; inputs are untouched
        assert a.cycles == 100.0 and b.cycles == 50.0

    def test_merge_stats_empty_raises(self):
        with pytest.raises(ValueError):
            merge_stats([])

    def test_merge_in_place_returns_self(self):
        a, b = SimStats(cycles=1.0), SimStats(cycles=2.0)
        assert a.merge(b) is a
        assert a.cycles == 3.0

    def test_clq_stats_merge(self):
        a = CLQStats(
            loads_inserted=5, war_checks=3, war_conflicts=1,
            occupancy_samples=2, occupancy_sum=6, occupancy_max=4,
        )
        b = CLQStats(
            loads_inserted=1, war_checks=2, war_conflicts=2, overflows=1,
            occupancy_samples=3, occupancy_sum=3, occupancy_max=2,
        )
        merged = a.merge(b)
        assert merged is a
        assert merged.loads_inserted == 6
        assert merged.war_checks == 5
        assert merged.war_conflicts == 3
        assert merged.overflows == 1
        assert merged.occupancy_max == 4
        assert merged.occupancy_avg == pytest.approx(9 / 5)
