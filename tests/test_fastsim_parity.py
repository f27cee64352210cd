"""Differential parity wall: reference vs fast.

The fast backend (:mod:`repro.runtime.fastsim`) compiles each basic
block to a closed-over Python step function and replays it. It is
required to be *bit-identical* to the golden interpreter — same dynamic
trace, same memory image, same final registers, same step count — and
therefore to produce identical timing statistics (cycles, store-buffer
stalls, CLQ/coloring counters) when the trace is fed to the in-order
core.

This suite enforces that on every benchmark of the 36-entry suite, on
the full scheme sweep for the quick subset, on randomized programs from
the hypothesis generator shared with ``test_properties``, and on a
program whose loop trip counts are loaded from memory, so one compiled
program follows different hot paths under different inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import CoreConfig, InOrderCore, ResilienceHardwareConfig
from repro.compiler.config import turnpike_config, turnstile_config
from repro.compiler.pipeline import compile_baseline, compile_program
from repro.isa.builder import ProgramBuilder
from repro.runtime.fastsim import FastProgram, compile_fast, execute_fast
from repro.runtime.interpreter import ExecutionLimitExceeded, execute
from repro.runtime.memory import Memory
from repro.workloads.generator import build_workload
from repro.workloads.suites import all_profiles, profile, quick_subset

from test_properties import random_programs

ALL_UIDS = [p.uid for p in all_profiles()]
QUICK_UIDS = [p.uid for p in quick_subset()]


def _assert_matches(res, ref, collect_trace):
    assert res.steps == ref.steps
    assert res.registers == ref.registers
    assert res.memory.data_image() == ref.memory.data_image()
    if collect_trace:
        assert res.trace == ref.trace
    else:
        assert res.trace is None


def assert_parity(program, make_memory, collect_trace=True, max_steps=2_000_000):
    """Differential run on fresh memories; compare everything."""
    ref = execute(
        program, make_memory(), max_steps=max_steps, collect_trace=collect_trace
    )
    fast = execute_fast(
        program, make_memory(), max_steps=max_steps, collect_trace=collect_trace
    )
    _assert_matches(fast, ref, collect_trace)
    return ref, fast


class TestBenchmarkParity:
    """Stat-for-stat equality on the full 36-benchmark suite."""

    @pytest.mark.parametrize("uid", ALL_UIDS)
    def test_turnpike_build_parity(self, uid):
        workload = build_workload(profile(uid))
        compiled = compile_program(workload.program, turnpike_config())
        assert_parity(compiled.program, workload.fresh_memory)

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    @pytest.mark.parametrize("scheme", ["baseline", "turnstile", "turnpike"])
    def test_scheme_sweep_timing_parity(self, uid, scheme):
        workload = build_workload(profile(uid))
        if scheme == "baseline":
            compiled = compile_baseline(workload.program)
            hw = ResilienceHardwareConfig.baseline()
        elif scheme == "turnstile":
            compiled = compile_program(workload.program, turnstile_config())
            hw = ResilienceHardwareConfig.turnstile(wcdl=10)
        else:
            compiled = compile_program(workload.program, turnpike_config())
            hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        ref, fast = assert_parity(compiled.program, workload.fresh_memory)
        ref_stats = InOrderCore(CoreConfig(), hw).run(ref.trace)
        fast_stats = InOrderCore(CoreConfig(), hw).run(fast.trace)
        assert fast_stats == ref_stats
        assert fast_stats.cycles == ref_stats.cycles
        assert fast_stats.sb_stall_cycles == ref_stats.sb_stall_cycles
        assert fast_stats.clq_occupancy_avg == ref_stats.clq_occupancy_avg
        assert fast_stats.colored_released == ref_stats.colored_released

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    def test_untraced_parity(self, uid):
        workload = build_workload(profile(uid))
        compiled = compile_program(workload.program, turnpike_config())
        assert_parity(compiled.program, workload.fresh_memory, collect_trace=False)


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomProgramParity:
    """Hypothesis: parity holds for arbitrary generated programs too."""

    @given(random_programs())
    @_SETTINGS
    def test_source_program_parity(self, prog):
        assert_parity(prog, Memory)

    @given(random_programs())
    @_SETTINGS
    def test_compiled_program_parity(self, prog):
        for compiled in (
            compile_baseline(prog),
            compile_program(prog, turnstile_config()),
            compile_program(prog, turnpike_config()),
        ):
            assert_parity(compiled.program, Memory)


def _memory_driven_program(n_loops: int = 2, trips_addr: int = 0x100):
    """Loops whose trip counts are *loaded from memory*: the same program
    follows different hot paths under different inputs."""
    b = ProgramBuilder("memdriven")
    b.begin_block("entry")
    base = b.li(0x1000)
    taddr = b.li(trips_addr)
    acc = b.li(1)
    slot = 0
    for loop_idx in range(n_loops):
        limit = b.load(taddr, offset=4 * loop_idx)
        i = b.li(0)
        header = b.fresh_label(f"L{loop_idx}_h")
        exit_label = b.fresh_label(f"L{loop_idx}_x")
        b.jmp(header)
        b.begin_block(header)
        acc = b.add(acc, i, dest=acc)
        acc = b.xor(acc, limit, dest=acc)
        b.store(acc, base, offset=4 * slot)
        slot += 1
        b.addi(i, 1, dest=i)
        b.blt(i, limit, header, exit_label)
        b.begin_block(exit_label)
    b.store(acc, base, offset=4 * slot)
    b.ret()
    return b.finish()


def _memory_with_trips(trips, trips_addr: int = 0x100) -> Memory:
    mem = Memory()
    for k, t in enumerate(trips):
        mem.store(trips_addr + 4 * k, t)
    return mem


class TestInputDrivenPaths:
    """One compiled program, divergent trip-count inputs: every run must
    match the reference, whichever path earlier runs took."""

    def test_divergent_trip_counts_are_bit_identical(self):
        prog = _memory_driven_program()
        fast = compile_fast(prog)
        # Long trips first (back-edges dominate), then short trips
        # (every loop exits early) through the same compiled object.
        for trips in ([12, 9], [5, 2]):
            ref = execute(prog, _memory_with_trips(trips), collect_trace=True)
            got = fast.execute(_memory_with_trips(trips), collect_trace=True)
            _assert_matches(got, ref, collect_trace=True)

    @given(
        first_trips=st.lists(st.integers(1, 14), min_size=2, max_size=2),
        run_trips=st.lists(st.integers(1, 14), min_size=2, max_size=2),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzz_trip_count_divergence(self, first_trips, run_trips):
        prog = _memory_driven_program()
        fast = compile_fast(prog)
        fast.execute(_memory_with_trips(first_trips), collect_trace=True)
        for collect in (True, False):
            ref = execute(
                prog, _memory_with_trips(run_trips), collect_trace=collect
            )
            got = fast.execute(
                _memory_with_trips(run_trips), collect_trace=collect
            )
            _assert_matches(got, ref, collect)

    @given(random_programs(), st.integers(0, 3))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_fuzz_random_programs_survive_repeated_runs(self, prog, reruns):
        """Random programs through one compiled object, repeatedly."""
        ref = execute(prog, Memory(), collect_trace=True)
        fast = compile_fast(prog)
        for _ in range(2 + reruns):
            got = fast.execute(Memory(), collect_trace=True)
            _assert_matches(got, ref, collect_trace=True)


class TestFastProgramBehaviour:
    def test_compiled_object_is_reusable(self, sum_loop):
        fast = compile_fast(sum_loop)
        assert isinstance(fast, FastProgram)
        first = fast.execute(Memory(), collect_trace=True)
        second = fast.execute(Memory(), collect_trace=True)
        assert first.trace == second.trace
        assert first.registers == second.registers
        assert first.memory.data_image() == second.memory.data_image()

    def test_limit_exceeded_message_parity(self, sum_loop):
        with pytest.raises(ExecutionLimitExceeded) as ref_exc:
            execute(sum_loop, Memory(), max_steps=10)
        with pytest.raises(ExecutionLimitExceeded) as fast_exc:
            execute_fast(sum_loop, Memory(), max_steps=10)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_limit_not_raised_at_exact_budget(self, sum_loop):
        ref = execute(sum_loop, Memory())
        fast = execute_fast(sum_loop, Memory(), max_steps=ref.steps)
        assert fast.steps == ref.steps

    def test_partial_register_initialisation(self, diamond):
        reg = sorted(diamond.all_registers(), key=lambda r: r.index)[0]
        init = {reg: 7}
        ref = execute(diamond, Memory(), initial_registers=init)
        fast = execute_fast(diamond, Memory(), initial_registers=init)
        assert fast.registers == ref.registers
        assert fast.memory.data_image() == ref.memory.data_image()
