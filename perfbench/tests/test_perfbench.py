"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ["REPRO_CACHE_DIR"] = "off"

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, percentile, resolve_owner, self_times, tail_percentile  # noqa: E402


class TestPercentileRule:
    def test_known_counts(self):
        assert tail_percentile(108) == 90  # the solo-points pass
        assert tail_percentile(100) == 90
        assert tail_percentile(99) == 89
        assert tail_percentile(200) == 95
        assert tail_percentile(20) == 50
        assert tail_percentile(19) is None
        assert tail_percentile(10) is None
        assert tail_percentile(0) is None

    @pytest.mark.parametrize("n", range(20, 1200, 7))
    def test_highest_with_ten_beyond(self, n):
        pct = tail_percentile(n)
        assert n * (100 - pct) >= 10 * 100
        assert pct == 99 or n * (100 - pct - 1) < 10 * 100

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([3.0], 90) == 3.0


def _span(i, parent, start, end, children=()):
    return Span(i, parent, f"s{i}", start, end, children=list(children))


class TestSelfTime:
    def test_synthetic_tree(self):
        # root [0,100] with overlapping children [10,40] and [30,60];
        # child 1 has a grandchild [15,20]; child 3 [90,100] is disjoint.
        spans = [
            _span(0, None, 0, 100, [1, 2, 4]),
            _span(1, 0, 10, 40, [3]),
            _span(2, 0, 30, 60),
            _span(3, 1, 15, 20),
            _span(4, 0, 90, 100),
        ]
        assert self_times(spans) == {0: 40, 1: 25, 2: 30, 3: 5, 4: 10}

    def test_selfs_sum_to_root_without_overlap(self):
        spans = [
            _span(0, None, 0, 1000, [1, 2]),
            _span(1, 0, 100, 400, [3]),
            _span(2, 0, 500, 900),
            _span(3, 1, 200, 250),
        ]
        assert sum(self_times(spans).values()) == 1000

    def test_recorded_nesting_and_folding(self):
        tracer = Tracer(fold=("golden",))
        inner = tracer.wrapper("machine", lambda: None)
        golden = tracer.wrapper("golden", lambda: inner())
        with tracer.span("pass"):
            inner()
            golden()
        spans = tracer.take()
        assert [s.name for s in spans] == ["pass", "machine", "golden"]
        assert spans[0].children == [1, 2]
        assert spans[2].children == []  # the machine run inside golden folds
        assert tracer.spans == []


class TestWrappers:
    def _bindings(self):
        return {
            (owner, attr): vars(resolve_owner(owner)).get(attr)
            for owner, attr, _, _ in layers.TARGETS
        }

    def test_restored_after_traced_run(self):
        from repro.harness.runner import RunCache, default_schemes

        before = self._bindings()
        assert len(before) == len(layers.TARGETS)  # no binding wrapped twice
        tracer = Tracer(fold=layers.FOLD)
        tracer.install(layers.TARGETS)
        try:
            assert all(self._bindings()[k] is not v for k, v in before.items())
            _, compiler, hardware = default_schemes()[2]
            with tracer.span("pass"):
                RunCache(persistent=None).stats("SPLASH3.radiosity", compiler,
                                                hardware)
        finally:
            tracer.restore()
        after = self._bindings()
        assert all(after[k] is v for k, v in before.items())
        names = {s.name for s in tracer.take()}
        assert {"runner.stats", "compiler.compile", "compiler.regalloc",
                "fastsim.run", "core.run"} <= names
        metrics = layers.layer_metrics([])
        assert list(metrics) == list(layers.METRICS)

    def test_restored_when_the_run_raises(self):
        from repro.arch.core import InOrderCore

        original = vars(InOrderCore)["run"]
        tracer = Tracer()
        tracer.install([("repro.arch.core:InOrderCore", "run", "core.run", None)])
        try:
            with pytest.raises(AttributeError):
                InOrderCore.run(None, None)
        finally:
            tracer.restore()
        assert vars(InOrderCore)["run"] is original
        assert [s.name for s in tracer.take()] == ["core.run"]


class TestInputs:
    def test_same_seed_same_inputs(self):
        for seed in (0, 1, 7, 123456):
            assert workloads.figure_sample(seed) == workloads.figure_sample(seed)
            assert workloads.solo_order(seed) == workloads.solo_order(seed)
            assert workloads.inject_case(seed) == workloads.inject_case(seed)

    def test_seeds_differ(self):
        samples = {tuple(workloads.figure_sample(s)) for s in range(10)}
        orders = {tuple(workloads.solo_order(s)) for s in range(10)}
        cases = {workloads.inject_case(s) for s in range(10)}
        assert workloads.inject_case(3) != workloads.inject_case(4)
        assert len(samples) == len(orders) == len(cases) == 10

    def test_figure_sample_takes_one_per_stratum(self):
        sample = workloads.figure_sample(5)
        assert len(sample) == len(workloads.STRATA)
        for stratum in workloads.STRATA:
            assert len(set(stratum) & set(sample)) == 1

    def test_strata_cover_the_suite(self):
        from repro.workloads.suites import all_profiles

        listed = [uid for stratum in workloads.STRATA for uid in stratum]
        assert sorted(listed) == sorted(p.uid for p in all_profiles())

    def test_every_case_has_a_reference(self):
        reference = workloads.load_reference()
        for seed in range(workloads.INJECT_CASES):
            uid, campaign_seed = workloads.inject_case(seed)
            assert workloads.inject_key(uid, campaign_seed) in reference["inject"]
        assert len(reference["solo"]) == len(workloads.solo_order(0))
        assert set(reference["figures"]["uids"]) == {
            uid for stratum in workloads.STRATA for uid in stratum}
