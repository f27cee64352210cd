"""Typed fault-outcome taxonomy tests.

Every injected run must land in exactly one :class:`FaultOutcomeKind`
bucket, and the mapping from machine behaviour to bucket must be
deterministic: completed-and-correct-without-recovery is MASKED,
fail-stop exceptions are DETECTED_HALT, the watchdog is TIMEOUT, and
*any* unexpected exception surfaces as PROTOCOL_BUG with a traceback
instead of being silently swallowed.
"""

import pytest

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import (
    VARIANT_CONFIGS,
    _campaign_context,
    _horizon,
    turnpike_machine_config,
    unsafe_machine_config,
)
from repro.faults.injector import (
    FaultOutcomeKind,
    InjectionOutcome,
    golden_memory,
    outcome_from_dict,
    outcome_to_dict,
    random_register_injections,
    run_with_injection,
)
from repro.faults.snapshot import (
    ConvergedExit,
    prepare_accelerated_run,
    record_golden_run,
)
from repro.isa.registers import Reg
from repro.runtime.machine import (
    DetectedHalt,
    Injection,
    InjectionTarget,
    ProtocolError,
    RecoveryFailure,
    ResilientMachine,
    WatchdogTimeout,
)
from repro.runtime.memory import Memory

from helpers import build_sum_loop


@pytest.fixture(scope="module")
def loop_setup():
    compiled = compile_program(build_sum_loop(trip=40), turnpike_config())
    memory = Memory()
    golden = golden_memory(compiled, memory)
    return compiled, memory, golden


def _memory_injection(time: int, bits=(), bit: int = 3) -> Injection:
    return Injection(
        time=time,
        target=InjectionTarget.MEMORY,
        bit=bit,
        bits=tuple(bits),
        detection_delay=2,
        addr=0x400,
    )


class TestKindClassification:
    def test_injection_past_end_of_run_is_masked(self, loop_setup):
        compiled, memory, golden = loop_setup
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=100_000),
            golden,
        )
        assert outcome.kind is FaultOutcomeKind.MASKED
        assert outcome.correct and not outcome.recovered
        assert outcome.masked and outcome.contained

    def test_single_bit_memory_error_is_contained(self, loop_setup):
        compiled, memory, golden = loop_setup
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200),
            golden,
        )
        assert outcome.kind in (
            FaultOutcomeKind.MASKED,
            FaultOutcomeKind.RECOVERED,
        )
        assert outcome.correct

    def test_double_bit_memory_error_is_detected_halt(self, loop_setup):
        compiled, memory, golden = loop_setup
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200, bits=(3, 7)),
            golden,
        )
        assert outcome.kind is FaultOutcomeKind.DETECTED_HALT
        assert outcome.contained and not outcome.correct
        assert "uncorrectable" in (outcome.error or "")
        # The detection (due at 202) rolls back once before the load of
        # the struck word halts: exactly one recovery, so the flag must
        # read ``recoveries > 0``, not ``> 1``.
        assert outcome.recovered and not outcome.parity_detected

    def test_watchdog_maps_to_timeout(self, loop_setup):
        compiled, memory, golden = loop_setup
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200),
            golden,
            max_steps=5,
        )
        assert outcome.kind is FaultOutcomeKind.TIMEOUT
        assert not outcome.contained
        assert "WatchdogTimeout" in (outcome.error or "")

    @pytest.mark.parametrize(
        "exc, expected_kind",
        [
            (RuntimeError("synthetic crash"), FaultOutcomeKind.PROTOCOL_BUG),
            (ProtocolError("impossible state"), FaultOutcomeKind.PROTOCOL_BUG),
            (RecoveryFailure("no binding"), FaultOutcomeKind.DETECTED_HALT),
        ],
    )
    def test_exception_mapping(self, loop_setup, monkeypatch, exc, expected_kind):
        compiled, memory, golden = loop_setup

        def explode(self):
            raise exc

        monkeypatch.setattr(ResilientMachine, "run", explode)
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200),
            golden,
        )
        assert outcome.kind is expected_kind
        assert type(exc).__name__ in (outcome.error or "")
        if expected_kind is FaultOutcomeKind.PROTOCOL_BUG:
            # Unexpected exceptions must carry the full traceback so the
            # campaign report is debuggable, not just countable.
            assert outcome.traceback is not None
            assert type(exc).__name__ in outcome.traceback
            assert str(exc) in outcome.traceback


class TestOutcomeFlags:
    """``recovered``/``parity_detected`` survive every early exit.

    Each case runs with exactly one recovery and one parity detection,
    so a flag computed as ``count > 1`` instead of ``count > 0`` reads
    False and fails here.
    """

    # A radix register strike whose taint reaches a fast-release store
    # address: the parity trip detects it and one rollback repairs it.
    PARITY_STRIKE = Injection(
        time=5160,
        target=InjectionTarget.REGISTER,
        reg=Reg.phys(2),
        bit=28,
        detection_delay=7,
    )

    @pytest.fixture(scope="class")
    def radix(self):
        compiled, memory, golden, _ = _campaign_context("SPLASH3.radix")
        config = VARIANT_CONFIGS["turnpike"](10)
        record = record_golden_run(compiled, config, memory, golden_image=golden)
        return compiled, memory, golden, config, record

    def test_timeout_after_a_parity_recovery(self, radix):
        """The recovered run needs more steps than the fault-free one, so
        a budget of exactly the fault-free total times it out after the
        rollback — from scratch on the watchdog, accelerated in the
        splice."""
        compiled, memory, golden, config, record = radix
        budget = record.total_steps
        strike = self.PARITY_STRIKE
        machine = ResilientMachine(compiled, config, memory.copy(),
                                   max_steps=budget)
        machine.arm_injection(strike)
        with pytest.raises(WatchdogTimeout):
            machine.run()
        assert machine.stats.recoveries == 1
        assert machine.stats.parity_detections == 1
        # The accelerated run converges, and its spliced total is over
        # the budget: that outcome comes from the splice branch.
        machine = ResilientMachine(compiled, config, memory.copy(),
                                   max_steps=budget)
        prepare_accelerated_run(machine, record, strike.time, memory)
        machine.arm_injection(strike)
        with pytest.raises(ConvergedExit) as conv:
            machine.run()
        spliced = conv.value.steps + record.total_steps - conv.value.golden_steps
        assert spliced > budget
        assert machine.stats.recoveries == 1
        assert machine.stats.parity_detections == 1
        for accel in (None, record):
            outcome = run_with_injection(compiled, config, memory, strike,
                                         golden, max_steps=budget, accel=accel)
            assert outcome.kind is FaultOutcomeKind.TIMEOUT
            assert outcome.recovered and outcome.parity_detected

    def test_spliced_recovery_keeps_the_parity_flag(self, radix):
        compiled, memory, golden, config, record = radix
        for accel in (None, record):
            outcome = run_with_injection(compiled, config, memory,
                                         self.PARITY_STRIKE, golden,
                                         accel=accel)
            assert outcome.kind is FaultOutcomeKind.RECOVERED
            assert outcome.recovered and outcome.parity_detected

    @pytest.mark.parametrize(
        "exc, kind",
        [
            (ProtocolError("impossible state"), FaultOutcomeKind.PROTOCOL_BUG),
            (RuntimeError("synthetic crash"), FaultOutcomeKind.PROTOCOL_BUG),
            # No single real strike both trips parity and halts: a parity
            # trip comes from a register strike, a halt from struck ECC
            # storage.
            (DetectedHalt("uncorrectable"), FaultOutcomeKind.DETECTED_HALT),
        ],
    )
    def test_stubbed_crash_after_a_parity_recovery(
        self, loop_setup, monkeypatch, exc, kind
    ):
        compiled, memory, golden = loop_setup

        def crash(self):
            self.stats.recoveries = 1
            self.stats.parity_detections = 1
            raise exc

        monkeypatch.setattr(ResilientMachine, "run", crash)
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200),
            golden,
        )
        assert outcome.kind is kind
        assert outcome.recovered and outcome.parity_detected


class TestMaskedSemantics:
    def _outcome(self, kind, correct, recovered):
        return InjectionOutcome(
            injection=_memory_injection(time=5),
            kind=kind,
            correct=correct,
            recovered=recovered,
            parity_detected=False,
        )

    def test_sdc_is_never_masked(self):
        outcome = self._outcome(FaultOutcomeKind.SDC, False, True)
        assert not outcome.masked
        assert not outcome.contained

    def test_recovered_run_is_not_masked(self):
        outcome = self._outcome(FaultOutcomeKind.RECOVERED, True, True)
        assert not outcome.masked
        assert outcome.contained

    def test_masked_requires_correct_without_recovery(self):
        outcome = self._outcome(FaultOutcomeKind.MASKED, True, False)
        assert outcome.masked


class TestSerializationRoundTrip:
    @pytest.fixture(scope="class")
    def unsafe_outcomes(self):
        """Register campaign on the Figure 16 unsafe configuration."""
        from repro.workloads.suites import load_workload

        wl = load_workload("CPU2006.bzip2")
        compiled = compile_program(wl.program, turnpike_config())
        memory = wl.fresh_memory()
        golden = golden_memory(compiled, memory)
        horizon = _horizon(compiled, memory)
        injections = random_register_injections(
            compiled, wcdl=10, count=8, seed=77, horizon=horizon
        )
        return [
            run_with_injection(
                compiled, unsafe_machine_config(10), memory, inj, golden
            )
            for inj in injections
        ]

    def test_unsafe_config_produces_sdc(self, unsafe_outcomes):
        sdc = [o for o in unsafe_outcomes if o.kind is FaultOutcomeKind.SDC]
        assert sdc, "Figure 16 unsafe mode should corrupt some runs"
        for o in sdc:
            assert not o.correct and not o.masked and not o.contained

    def test_outcome_round_trip_is_lossless(self, unsafe_outcomes):
        for outcome in unsafe_outcomes:
            restored = outcome_from_dict(outcome_to_dict(outcome))
            assert restored == outcome

    def test_round_trip_preserves_error_text(self, loop_setup, monkeypatch):
        compiled, memory, golden = loop_setup

        def explode(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(ResilientMachine, "run", explode)
        outcome = run_with_injection(
            compiled,
            turnpike_machine_config(10),
            memory,
            _memory_injection(time=200),
            golden,
        )
        restored = outcome_from_dict(outcome_to_dict(outcome))
        assert restored == outcome
        assert restored.traceback == outcome.traceback


class TestInjectionValidation:
    """Satellite: arm_injection rejects malformed injections up front."""

    def _machine(self, loop_setup):
        compiled, memory, _ = loop_setup
        return ResilientMachine(
            compiled, turnpike_machine_config(10), memory.copy()
        )

    def test_detection_delay_beyond_wcdl_rejected(self, loop_setup):
        machine = self._machine(loop_setup)
        bad = Injection(
            time=5,
            target=InjectionTarget.MEMORY,
            bit=0,
            detection_delay=11,
            addr=0x400,
        )
        with pytest.raises(ValueError, match="exceed WCDL"):
            machine.arm_injection(bad)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(time=0, target=InjectionTarget.PC, bit=1), "time"),
            (dict(time=5, target=InjectionTarget.PC, bit=40), "bit"),
            (
                dict(time=5, target=InjectionTarget.PC, bit=3, bits=(3, 3)),
                "duplicate",
            ),
            (dict(time=5, target=InjectionTarget.REGISTER, bit=3), "register"),
            (
                dict(time=5, target=InjectionTarget.PC, bit=3, addr=0x400),
                "MEMORY",
            ),
            (
                dict(
                    time=5,
                    target=InjectionTarget.MEMORY,
                    bit=3,
                    addr=-4,
                ),
                "non-negative",
            ),
        ],
    )
    def test_malformed_injection_rejected(self, loop_setup, kwargs, match):
        machine = self._machine(loop_setup)
        with pytest.raises(ValueError, match=match):
            machine.arm_injection(Injection(**kwargs))
