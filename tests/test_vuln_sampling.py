"""Stratified importance-sampling tests: interval arithmetic, stratum
cell indexing, strata/breakdown agreement, sampled campaign determinism,
enumerated-campaign byte-stability, the loud masked-misclassification
contract, and the sampled-vs-exhaustive validator.
"""

from __future__ import annotations

import functools

import pytest

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import CampaignRunner, CampaignSpec, execute_campaign
from repro.faults.sampling import (
    MaskedMisclassification,
    SamplingOptions,
    Stratum,
    build_strata,
    sample_stratum,
    validate_benchmark,
    wilson,
    z_score,
)
from repro.runtime.memory import Memory
from repro.verify.vuln import MASKED, UNKNOWN, VULNERABLE, build_map

from helpers import build_sum_loop


@functools.lru_cache(maxsize=1)
def _sum_loop_vmap():
    compiled = compile_program(build_sum_loop(), turnpike_config())
    return build_map(compiled, Memory, uid="sum_loop")


class TestIntervalArithmetic:
    def test_z_score_table_values(self):
        assert z_score(0.95) == pytest.approx(1.959963984540054)
        assert z_score(0.99) == pytest.approx(2.5758293035489004)

    def test_z_score_fallback_quantile(self):
        # 0.975 two-sided -> the 0.9875 quantile, not in the table.
        assert z_score(0.975) == pytest.approx(2.2414, abs=1e-3)

    def test_z_score_rejects_degenerate_levels(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                z_score(bad)

    def test_wilson_no_information_is_whole_interval(self):
        assert wilson(0, 0, 1.96) == (0.5, 0.5)

    def test_wilson_tightens_with_samples(self):
        _, h10 = wilson(1, 10, 1.96)
        _, h100 = wilson(10, 100, 1.96)
        assert h100 < h10

    def test_wilson_zero_failures_lower_bound_is_zero(self):
        center, half = wilson(0, 50, 1.96)
        assert center == pytest.approx(half)
        assert center - half == pytest.approx(0.0, abs=1e-12)


class TestSamplingOptions:
    def test_round_trip(self):
        opts = SamplingOptions(enabled=True, ci_width=0.02, token_rate=4)
        assert SamplingOptions.from_dict(opts.to_dict()) == opts

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingOptions(ci_width=0.0)
        with pytest.raises(ValueError):
            SamplingOptions(confidence=1.0)
        with pytest.raises(ValueError):
            SamplingOptions(token_rate=0)
        with pytest.raises(ValueError):
            SamplingOptions(batch=0)


class TestStratum:
    def test_flat_index_maps_to_cells(self):
        s = Stratum("register", VULNERABLE)
        s.add(4, 2, 10, 0b101)  # ticks 10-11, bits {0, 2} of r2
        s.add(2, -1, 50, 0b11)  # structure entries 0-1 at tick 50
        assert s.size == 6
        assert s.cell(0) == (2, 0, 10)
        assert s.cell(1) == (2, 2, 10)
        assert s.cell(2) == (2, 0, 11)
        assert s.cell(3) == (2, 2, 11)
        assert s.cell(4) == (None, 0, 50)
        assert s.cell(5) == (None, 1, 50)
        with pytest.raises(IndexError):
            s.cell(6)


class TestBuildStrata:
    def test_populations_match_breakdown(self):
        vmap = _sum_loop_vmap()
        per = vmap.breakdown("turnpike")
        for target in ("register", "store_buffer", "clq", "coloring"):
            strata = build_strata(vmap, "turnpike", target)
            assert strata[MASKED].size == per[target]["masked"]
            assert strata[VULNERABLE].size == per[target]["vulnerable"]
            assert strata[UNKNOWN].size == per[target]["unknown"]

    def test_every_stratum_cell_classifies_to_its_label(self):
        vmap = _sum_loop_vmap()
        for target in ("register", "store_buffer"):
            strata = build_strata(vmap, "turnpike", target)
            for label, stratum in strata.items():
                step = max(1, stratum.size // 17)
                for index in range(0, stratum.size, step):
                    reg, bit, time = stratum.cell(index)
                    assert vmap.classify(
                        target, time, bit=bit, reg=reg, variant="turnpike"
                    ) == label, (target, label, index)

    def test_unsound_variant_is_all_unknown(self):
        vmap = _sum_loop_vmap()
        strata = build_strata(vmap, "unsafe", "register")
        assert strata[MASKED].size == 0
        assert strata[VULNERABLE].size == 0
        assert strata[UNKNOWN].size > 0


class TestMaskedCrossCheck:
    def test_corrupting_masked_token_raises_loudly(self):
        stratum = Stratum("register", MASKED)
        stratum.add(64, 3, 1, 0xFF)
        with pytest.raises(MaskedMisclassification, match="reg=3"):
            sample_stratum(
                stratum,
                weight=1.0,
                options=SamplingOptions(enabled=True),
                z=1.96,
                rng_key="k",
                wcdl=10,
                run_cell=lambda *args: False,
            )

    def test_clean_masked_stratum_costs_only_tokens(self):
        stratum = Stratum("register", MASKED)
        stratum.add(4096, 3, 1, 0xFF)
        options = SamplingOptions(enabled=True, token_rate=5)
        estimate = sample_stratum(
            stratum,
            weight=1.0,
            options=options,
            z=1.96,
            rng_key="k",
            wcdl=10,
            run_cell=lambda *args: True,
        )
        assert estimate.injections == 5
        assert estimate.failures == 0
        assert estimate.center == 0.0
        assert estimate.half_width == 0.0


class TestSampledCampaign:
    SPEC = dict(
        uid="SPLASH3.radix",
        wcdl=10,
        count=1,
        seed=7,
        targets=("register",),
        variants=("turnpike",),
    )

    def test_deterministic_and_reports_avf_interval(self):
        spec = CampaignSpec(**self.SPEC)
        opts = SamplingOptions(enabled=True)
        report1, text1 = execute_campaign(spec, sampling=opts)
        report2, text2 = execute_campaign(spec, sampling=opts)
        assert text1 == text2
        agg = report1.aggregate()
        assert agg == report2.aggregate()
        assert report1.records == []
        per = agg["avf"]["per_variant"]["turnpike"]["register"]
        assert 0.0 <= per["ci_low"] <= per["avf"] <= per["ci_high"] <= 1.0
        assert per["strata"]["masked"]["failures"] == 0
        assert agg["avf"]["total_injections"] == per["injections"]
        assert "stratified AVF estimates" in text1

    def test_rejects_resume_and_shard_leases(self):
        spec = CampaignSpec(**self.SPEC)
        runner = CampaignRunner(spec, sampling=SamplingOptions(enabled=True))
        with pytest.raises(ValueError, match="adaptive"):
            runner.run(resume=True)

    def test_enumerated_campaign_has_no_avf_key(self):
        # Byte-stability contract: with sampling disabled the aggregate
        # dict must not grow an "avf" key (exports stay byte-identical
        # to pre-sampling releases).
        spec = CampaignSpec(**{**self.SPEC, "count": 2})
        report, _ = execute_campaign(spec)
        assert report.avf is None
        assert "avf" not in report.aggregate()


class TestValidator:
    def test_radix_validation_passes_with_big_savings(self):
        result = validate_benchmark("SPLASH3.radix")
        assert result.ok
        assert result.masked_misclassified == 0
        assert result.covered
        # The acceptance bar: sampling spends at most 20% of the
        # exhaustive injection budget.
        assert result.sampled_injections <= result.exhaustive_injections // 5
        assert result.saved_ratio >= 0.8
        assert "PASS" in result.render_text()
        payload = result.to_dict()
        assert payload["ok"] is True
        assert payload["uid"] == "SPLASH3.radix"
