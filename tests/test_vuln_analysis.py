"""Bit-level vulnerability analysis (BVA) tests: map construction,
classification soundness, the R7/R8 verifier rules, SARIF metadata, and
the ``repro lint`` crash-containment contract.

The heavy soundness property — a statically masked register bit, force
injected, never changes the architectural exit state — is checked with
hypothesis over the canonical sum loop.
"""

from __future__ import annotations

import argparse
import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import VARIANT_CONFIGS
from repro.faults.injector import golden_memory, run_with_injection
from repro.isa.registers import Reg
from repro.runtime.machine import Injection, InjectionTarget
from repro.runtime.memory import Memory
from repro.verify import VerifierContext, default_rules
from repro.verify.rules.vulnerability import (
    DEFAULT_PROTECTION,
    MaskedFractionRule,
    UnprotectedVulnerableRule,
)
from repro.verify.sarif import RULE_CATALOGUE, reports_to_sarif, rule_help_uri
from repro.verify.vuln import (
    MASKED,
    UNKNOWN,
    VULNERABLE,
    VulnerabilityMap,
    build_map,
    variant_config,
)

from helpers import build_sum_loop

ALL_RULE_IDS = [f"R{i}" for i in range(1, 10)]


@functools.lru_cache(maxsize=1)
def _sum_loop_setup():
    """Compiled sum loop + its vulnerability map (built once)."""
    compiled = compile_program(build_sum_loop(), turnpike_config())
    vmap = build_map(compiled, Memory, uid="sum_loop")
    memory = Memory()
    golden = golden_memory(compiled, memory)
    config = variant_config("turnpike", wcdl=10)
    return compiled, vmap, memory, golden, config


class TestVariantConfig:
    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_matches_campaign_constructors(self, variant):
        # vuln.variant_config is a deliberate local mirror (it cannot
        # import the campaign module without a cycle); lock the two.
        assert variant_config(variant, 10) == VARIANT_CONFIGS[variant](10)
        assert variant_config(variant, 25) == VARIANT_CONFIGS[variant](25)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config("bogus")


class TestVulnerabilityMap:
    def test_build_is_deterministic(self):
        compiled, vmap, *_ = _sum_loop_setup()
        again = build_map(compiled, Memory, uid="sum_loop")
        assert again.to_dict() == vmap.to_dict()

    def test_round_trip_through_dict(self):
        _, vmap, *_ = _sum_loop_setup()
        clone = VulnerabilityMap.from_dict(vmap.to_dict())
        assert clone.to_dict() == vmap.to_dict()
        assert clone.horizon == vmap.horizon
        # lookups survive the round trip
        for t in (1, vmap.horizon - 1):
            for reg in range(vmap.num_registers):
                assert clone.register_live_mask(reg, t) == \
                    vmap.register_live_mask(reg, t)

    def test_malformed_payload_rejected(self):
        _, vmap, *_ = _sum_loop_setup()
        data = vmap.to_dict()
        data["reg_live"] = "oops"
        with pytest.raises(TypeError):
            VulnerabilityMap.from_dict(data)

    def test_classify_edge_cases(self):
        _, vmap, *_ = _sum_loop_setup()
        reg = next(
            r for r in range(vmap.num_registers) if r not in vmap.reserved
        )
        reserved = vmap.reserved[0]
        # Beyond the committed run nothing is ever applied.
        assert vmap.classify("register", vmap.ticks, reg=reg) == MASKED
        # Out-of-range coordinates make no claim.
        assert vmap.classify("register", 0, reg=reg) == UNKNOWN
        assert vmap.classify("register", 1, bit=32, reg=reg) == UNKNOWN
        assert vmap.classify("register", 1, reg=None) == UNKNOWN
        assert vmap.classify("register", 1, reg=reserved) == UNKNOWN
        # Unsound variant and unmodelled targets make no claim either.
        assert vmap.classify("register", 1, reg=reg, variant="unsafe") == UNKNOWN
        assert vmap.classify("pc", 1) == UNKNOWN

    def test_breakdown_partitions_population(self):
        _, vmap, *_ = _sum_loop_setup()
        for variant in vmap.variants:
            for name, row in vmap.breakdown(variant).items():
                assert row["cells"] == (
                    row["masked"] + row["vulnerable"] + row["unknown"]
                ), name
                assert row["unknown"] == 0  # sound variants: total claim

    def test_absent_structures_fully_masked_under_turnstile(self):
        _, vmap, *_ = _sum_loop_setup()
        per = vmap.breakdown("turnstile")
        assert "clq" not in vmap.active["turnstile"]
        assert "coloring" not in vmap.active["turnstile"]
        assert per["clq"]["masked"] == per["clq"]["cells"]
        assert per["coloring"]["masked"] == per["coloring"]["cells"]
        # ...while colouring, which turnpike does instantiate, is
        # occupied (vulnerable) for most of the loop.
        assert vmap.breakdown("turnpike")["coloring"]["vulnerable"] > 0

    def test_render_text_mentions_every_target(self):
        _, vmap, *_ = _sum_loop_setup()
        text = vmap.render_text()
        for name in ("register", "store_buffer", "clq", "coloring"):
            assert name in text
        assert "(absent)" in text  # turnstile's clq/coloring rows


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_masked_register_bits_never_corrupt_exit_state(data):
    """Force-injecting any statically masked register bit is harmless."""
    compiled, vmap, memory, golden, config = _sum_loop_setup()
    regs = [r for r in range(vmap.num_registers) if r not in vmap.reserved]
    reg = data.draw(st.sampled_from(regs))
    bit = data.draw(st.integers(0, 31))
    time = data.draw(st.integers(1, vmap.horizon - 1))
    klass = vmap.classify(
        "register", time, bit=bit, reg=reg, variant="turnpike"
    )
    assume(klass == MASKED)
    delay = data.draw(st.integers(0, vmap.wcdl))
    outcome = run_with_injection(
        compiled,
        config,
        memory,
        Injection(
            time=time,
            target=InjectionTarget.REGISTER,
            reg=Reg.phys(reg),
            bit=bit,
            detection_delay=delay,
        ),
        golden,
    )
    assert outcome.correct, (reg, bit, time, delay, outcome.kind)


class TestVulnerabilityRules:
    def _ctx(self):
        compiled, *_ = _sum_loop_setup()
        return VerifierContext(
            compiled, differential=True, memory_factory=Memory
        )

    def test_r7_reports_breakdown_info(self):
        diags = MaskedFractionRule().run(self._ctx())
        infos = [d for d in diags if d.severity.value == "info"]
        assert len(infos) == 1
        assert "vulnerability breakdown under turnpike" in infos[0].message
        assert "register" in infos[0].message

    def test_r7_floor_zero_warns_on_every_protected_structure(self):
        diags = MaskedFractionRule(floor=0.0).run(self._ctx())
        warnings = [d for d in diags if d.severity.value == "warning"]
        assert len(warnings) == len(DEFAULT_PROTECTION["turnpike"])
        assert all("masked under" in d.message for d in warnings)

    def test_r7_silent_without_differential_context(self):
        compiled, *_ = _sum_loop_setup()
        ctx = VerifierContext(compiled, differential=False)
        assert MaskedFractionRule().run(ctx) == []
        assert UnprotectedVulnerableRule().run(ctx) == []

    def test_r8_silent_on_stock_protection(self):
        assert UnprotectedVulnerableRule().run(self._ctx()) == []

    def test_r8_errors_on_uncovered_structure(self):
        rule = UnprotectedVulnerableRule(
            protection={"turnpike": frozenset({"store_buffer"})}
        )
        diags = rule.run(self._ctx())
        assert diags
        assert all(d.severity.value == "error" for d in diags)
        assert any("register" in d.message for d in diags)
        assert all("protection set" in d.message for d in diags)

    def test_default_rules_cover_r1_to_r9(self):
        assert [r.rule_id for r in default_rules()] == ALL_RULE_IDS


class TestSarifRuleMetadata:
    def test_rule_id_set_is_locked(self):
        # Adding a rule without SARIF metadata (or retiring one without
        # cleaning up) must fail loudly here.
        assert list(RULE_CATALOGUE) == ALL_RULE_IDS
        assert {r.rule_id for r in default_rules()} == set(RULE_CATALOGUE)

    def test_every_rule_has_help_uri_and_short_description(self):
        driver = reports_to_sarif([])["runs"][0]["tool"]["driver"]
        rules = driver["rules"]
        assert [r["id"] for r in rules] == ALL_RULE_IDS
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["helpUri"] == rule_help_uri(rule["id"])
            assert rule["id"].lower() in rule["helpUri"]
            assert rule["helpUri"].endswith(rule["name"])


class TestLintCrashContainment:
    def _args(self, **overrides):
        base = dict(
            uid="SPLASH3.radix",
            all=False,
            scheme="turnpike",
            sb=4,
            format="text",
            differential=False,
            strict=False,
            max_per_rule=8,
            output=None,
            workers=1,
        )
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_verifier_crash_exits_2_and_names_the_uid(
        self, monkeypatch, capsys
    ):
        from repro.verify import lint as lint_mod

        def boom(uid, **kwargs):
            raise RuntimeError("kaput")

        monkeypatch.setattr(lint_mod, "lint_benchmark", boom)
        code = lint_mod.run_lint(self._args())
        captured = capsys.readouterr()
        assert code == 2
        assert "SPLASH3.radix: verifier crashed: RuntimeError: kaput" in (
            captured.err
        )
        assert "1 crashed (SPLASH3.radix)" in captured.out
        assert "CRASH" in captured.out

    def test_one_crash_does_not_mask_other_reports(
        self, monkeypatch, capsys
    ):
        from repro.verify import lint as lint_mod

        real = lint_mod.lint_benchmark

        def flaky(uid, **kwargs):
            if uid == "CPU2006.gcc":
                raise ValueError("broken program")
            return real(uid, **kwargs)

        monkeypatch.setattr(lint_mod, "lint_benchmark", flaky)
        monkeypatch.setattr(
            lint_mod,
            "_lint_all",
            lambda uids, **kw: [
                lint_mod._lint_job(
                    (
                        u,
                        kw["scheme"],
                        kw["sb_size"],
                        kw["differential"],
                        kw.get("upset_model", "single"),
                    )
                )
                for u in ["CPU2006.gcc", "SPLASH3.radix"]
            ],
        )
        code = lint_mod.run_lint(self._args(uid="SPLASH3.radix"))
        captured = capsys.readouterr()
        assert code == 2
        assert "CPU2006.gcc: verifier crashed" in captured.err
        # The healthy benchmark still got linted and summarised.
        assert "1 program(s)" in captured.out
