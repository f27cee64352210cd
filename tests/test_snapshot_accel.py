"""Snapshot-accelerated fault injection: parity, soundness, and audits.

The acceleration contract under test: golden-run memoization, snapshot
fast-forward, and convergence early-exit must be *observationally
invisible* — every accelerated :class:`InjectionOutcome` equals the
from-scratch one, for every variant, target, and snapshot interval
(including the degenerate no-snapshot configuration).  On top of the
parity sweep this file audits the machinery itself: the snapshot field
audit fails loudly on unknown machine state, restore reproduces the
machine exactly (full-state canonical equality, not merely observable
equality), the timeout splice reproduces the watchdog's exact behaviour,
and golden records round-trip through the persistent artifact cache.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import build_sum_loop
from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import VARIANT_CONFIGS, _horizon
from repro.faults.injector import (
    DEFAULT_TARGET_MIX,
    golden_memory,
    injection_for_index,
    outcome_to_dict,
    run_with_injection,
)
from repro.faults.snapshot import (
    ConvergedExit,
    GoldenRecord,
    full_state_canonical,
    prepare_accelerated_run,
    record_golden_run,
)
from repro.harness.artifacts import ArtifactCache
from repro.isa.builder import ProgramBuilder
from repro.runtime.machine import (
    ResilientMachine,
    SnapshotError,
    WatchdogTimeout,
    memory_fingerprint,
)
from repro.runtime.memory import Memory


@pytest.fixture(scope="module")
def ctx():
    """Compiled sum-loop + golden image shared by the whole module."""
    compiled = compile_program(build_sum_loop(), turnpike_config())
    memory = Memory()
    golden = golden_memory(compiled, memory)
    horizon = _horizon(compiled, memory)
    return compiled, memory, golden, horizon


def _turnpike(wcdl: int = 10):
    return VARIANT_CONFIGS["turnpike"](wcdl)


class TestGoldenRecord:
    def test_record_shape(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        assert rec.total_ticks > 0
        assert len(rec.fp_index) > 0
        assert rec.snap_times == sorted(rec.snap_times)
        assert len(rec.snap_times) == len(rec.snapshots)
        # Every fingerprint maps into the run's tick/step span.
        for tick, steps in rec.fp_index.values():
            assert 0 < tick <= rec.total_ticks
            assert 0 < steps <= rec.total_steps

    def test_total_steps_is_exact(self, ctx):
        """The splice arithmetic hinges on total_steps being the precise
        loop-iteration count: max_steps == total succeeds, total-1 trips
        the watchdog."""
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=0, golden_image=golden
        )
        machine = ResilientMachine(
            compiled, _turnpike(), memory.copy(), max_steps=rec.total_steps
        )
        machine.run()
        machine = ResilientMachine(
            compiled, _turnpike(), memory.copy(),
            max_steps=rec.total_steps - 1,
        )
        with pytest.raises(WatchdogTimeout):
            machine.run()

    def test_interval_zero_records_no_snapshots(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=0, golden_image=golden
        )
        assert rec.snapshots == [] and rec.interval is None

    def test_snapshot_index_is_strictly_before(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        first = rec.snap_times[0]
        assert rec.snapshot_index_before(first) is None
        assert rec.snapshot_index_before(first + 1) == 0
        assert (
            rec.snapshot_index_before(rec.snap_times[-1] + 1)
            == len(rec.snapshots) - 1
        )

    def test_wrong_golden_image_fails_loudly(self, ctx):
        compiled, memory, _, _ = ctx
        with pytest.raises(SnapshotError, match="diverged"):
            record_golden_run(
                compiled, _turnpike(), memory, interval=16,
                golden_image={0: 0xDEAD},
            )


def _reference_points(compiled, config, memory, hook):
    """Run a plain fault-free machine, calling ``hook(machine, label, pc,
    t)`` at every tick; returns the finished machine and its stats."""
    machine = ResilientMachine(compiled, config, memory.copy())
    machine._on_tick = lambda label, pc, t, steps: hook(machine, label, pc, t)
    stats = machine.run()
    return machine, stats


class TestSnapshotRestore:
    def test_restore_reproduces_machine_exactly(self, ctx):
        """Each snapshot restores to full-state canonical equality with a
        reference machine stopped at the same tick, its cell dict is the
        reference's, its ``mem_delta`` holds exactly the cells changed
        since the previous snapshot, and the restored machine runs to the
        same terminal image and stats."""
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        at = set(rec.snap_times)
        ref_cells: dict[int, dict[int, int]] = {}
        ref_canon: dict[int, tuple] = {}

        def capture(machine, label, pc, t):
            if t in at:
                ref_cells[t] = dict(machine.mem.cells)
                ref_canon[t] = full_state_canonical(machine, t)

        reference, ref_stats = _reference_points(
            compiled, config, memory, capture
        )
        ref_image = reference.mem.data_image()
        assert sorted(ref_cells) == rec.snap_times
        prev = memory.cells
        for index, snap in enumerate(rec.snapshots):
            cells = ref_cells[snap.t]
            assert rec.cells_at(index, memory.cells) == cells
            # Key-exact: a new cell is in the delta even when it holds 0.
            assert snap.mem_delta == {
                a: v for a, v in cells.items() if a not in prev or prev[a] != v
            }
            prev = cells
            machine = ResilientMachine(compiled, config, memory.copy())
            machine.restore(snap, cells=rec.cells_at(index, memory.cells))
            assert full_state_canonical(machine, snap.t) == ref_canon[snap.t]
            assert machine._mem_fp == memory_fingerprint(machine.mem.cells)
            stats = machine.run()
            assert machine.mem.data_image() == ref_image
            assert stats.committed == ref_stats.committed
            assert stats.regions == ref_stats.regions

    def test_mem_delta_skips_rewritten_unchanged_cells(self):
        """A loop that stores a changing value, a constant, and a zero
        into a fresh cell every iteration: the constant and the zero cell
        each appear in exactly one delta (the zero one key-exact), the
        changing cell in many."""
        b = ProgramBuilder("rewrite_loop")
        b.begin_block("entry")
        i = b.li(0)
        limit = b.li(12)
        base = b.li(0x400)
        seven = b.li(7)
        zero = b.li(0)
        b.jmp("loop")
        b.begin_block("loop")
        b.store(i, base)
        b.store(seven, base, offset=4)
        b.store(zero, base, offset=8)
        b.addi(i, 1, dest=i)
        b.blt(i, limit, "loop", "done")
        b.begin_block("done")
        b.ret()
        compiled = compile_program(b.finish(), turnpike_config())
        memory = Memory()
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=3,
            golden_image=golden_memory(compiled, memory),
        )
        deltas = [snap.mem_delta for snap in rec.snapshots]
        assert [d[0x404] for d in deltas if 0x404 in d] == [7]
        assert [d[0x408] for d in deltas if 0x408 in d] == [0]
        assert sum(0x400 in d for d in deltas) > 1

    def test_fp_index_holds_only_boundary_points(self, ctx):
        """The index holds exactly the ticks whose next instruction is a
        region boundary (the sum loop never revisits a state, so no
        fingerprint is dropped as ambiguous)."""
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        blocks = {b.label: b.instructions for b in compiled.program.blocks}
        boundary_ticks: set[int] = set()

        def capture(machine, label, pc, t):
            if pc < len(blocks[label]) and blocks[label][pc].is_boundary:
                boundary_ticks.add(t)

        _reference_points(compiled, config, memory, capture)
        indexed = sorted(tick for tick, _ in rec.fp_index.values())
        assert indexed and indexed == sorted(boundary_ticks)

    def test_unknown_machine_field_fails_loudly(self, ctx):
        """The field audit: any attribute snapshot() has no rule for is a
        SnapshotError, not silent state loss."""
        compiled, memory, _, _ = ctx
        machine = ResilientMachine(compiled, _turnpike(), memory.copy())
        machine._experimental_field = 7
        with pytest.raises(SnapshotError, match="_experimental_field"):
            machine.snapshot("entry", 0, 0, 0)

    def test_restore_delta_requires_base_cells(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        machine = ResilientMachine(compiled, _turnpike(), memory.copy())
        with pytest.raises(SnapshotError, match="delta"):
            machine.restore(rec.snapshots[0])


class TestConvergence:
    def test_convergence_fires_and_identifies_golden_point(self, ctx):
        """Drive an injected machine by hand: the checker must raise
        ConvergedExit at a fingerprint the golden stream actually owns."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        raised = None
        for index in range(40):
            injection = injection_for_index(
                compiled, 10, 42, index, horizon, DEFAULT_TARGET_MIX
            )
            machine = ResilientMachine(compiled, config, memory.copy())
            prepare_accelerated_run(machine, rec, injection.time, memory)
            machine.arm_injection(injection)
            try:
                machine.run()
            except ConvergedExit as exc:
                raised = exc
                break
        assert raised is not None, "no injection converged in 40 tries"
        assert raised.golden_tick <= rec.total_ticks
        assert raised.golden_steps <= rec.total_steps
        assert rec.fp_index  # the match came out of this index

    def test_timeout_splice_matches_watchdog(self, ctx):
        """With a step budget squeezed between the injection point and
        the spliced total, accelerated and from-scratch runs must both
        classify TIMEOUT with identical error text."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec_full = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        for index in range(60):
            injection = injection_for_index(
                compiled, 10, 42, index, horizon, DEFAULT_TARGET_MIX
            )
            for budget in (
                rec_full.total_steps - 1,
                rec_full.total_steps + 5,
                rec_full.total_steps + 50,
            ):
                ref = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget,
                )
                acc = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget, accel=rec_full,
                )
                assert outcome_to_dict(acc) == outcome_to_dict(ref)


class TestParity:
    """The headline guarantee, exhaustively: accelerated == from-scratch."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_all_targets_all_variants(self, ctx, variant):
        compiled, memory, golden, horizon = ctx
        config = VARIANT_CONFIGS[variant](10)
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        for index in range(35):  # covers every target in the 7-mix
            injection = injection_for_index(
                compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
            )
            ref = run_with_injection(
                compiled, config, memory, injection, golden
            )
            acc = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            assert outcome_to_dict(acc) == outcome_to_dict(ref), (
                f"accel diverged: variant={variant} index={index} "
                f"target={injection.target.value}"
            )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        variant=st.sampled_from(sorted(VARIANT_CONFIGS)),
        interval=st.sampled_from([1, 3, 17, 64, 0, 10**9]),
        index=st.integers(min_value=0, max_value=400),
        wcdl=st.sampled_from([4, 10]),
    )
    def test_random_interval_and_injection(self, variant, interval, index, wcdl):
        """Hypothesis sweep over (variant, interval, injection, wcdl).

        ``interval=0`` disables snapshots (convergence-only), and an
        interval beyond the run length degenerates to the pure legacy
        path; both must still be byte-equal to from-scratch.
        """
        compiled = compile_program(build_sum_loop(), turnpike_config())
        memory = Memory()
        golden = golden_memory(compiled, memory)
        horizon = _horizon(compiled, memory)
        config = VARIANT_CONFIGS[variant](wcdl)
        rec = record_golden_run(
            compiled, config, memory, interval=interval, golden_image=golden
        )
        if interval >= 10**9:
            assert rec.snapshots == []  # degenerates to the old path
        injection = injection_for_index(
            compiled, wcdl, 99, index, horizon, DEFAULT_TARGET_MIX
        )
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)


class TestArtifactCache:
    def test_golden_record_round_trips(self, ctx, tmp_path):
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.golden_key("TEST.sum_loop", config, 16, 4_000_000)
        assert cache.load_golden(key) is None
        cache.store_golden(key, rec)
        loaded = cache.load_golden(key)
        assert isinstance(loaded, GoldenRecord)
        assert loaded.fp_index == rec.fp_index
        assert loaded.snap_times == rec.snap_times
        assert loaded.total_steps == rec.total_steps
        assert [s.mem_delta for s in loaded.snapshots] == [
            s.mem_delta for s in rec.snapshots
        ]
        info = cache.info()
        assert info["goldens"] == 1
        assert cache.clear() == 1

    def test_loaded_record_accelerates_identically(self, ctx, tmp_path):
        """A record served from disk (fresh process ≈ fresh unpickle) must
        drive the exact same outcomes as the in-memory one — this is what
        makes cross-process golden sharing sound."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.golden_key("TEST.sum_loop", config, 16, 4_000_000)
        cache.store_golden(key, rec)
        loaded = cache.load_golden(key)
        for index in range(20):
            injection = injection_for_index(
                compiled, 10, 5, index, horizon, DEFAULT_TARGET_MIX
            )
            a = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            b = run_with_injection(
                compiled, config, memory, injection, golden, accel=loaded
            )
            assert outcome_to_dict(a) == outcome_to_dict(b)

    def test_golden_key_separates_configs(self):
        tp = _turnpike()
        ts = VARIANT_CONFIGS["turnstile"](10)
        k = ArtifactCache.golden_key
        assert k("A", tp, 256, 100) != k("B", tp, 256, 100)
        assert k("A", tp, 256, 100) != k("A", ts, 256, 100)
        assert k("A", tp, 256, 100) != k("A", tp, 128, 100)
        assert k("A", tp, 256, 100) != k("A", tp, 256, 200)
