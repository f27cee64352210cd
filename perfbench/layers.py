"""Which calls the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules. Every ``*_ms`` metric is
host milliseconds of self time per workload pass, every ``*_us`` metric
is self time per call, every ``*_ns_per_*`` metric is self time per
unit of work, and counts are per pass. A layer that does no work in a
workload reports 0. There is no queueing in a one-process closed loop,
so no layer has a waiting time to report.
"""

from __future__ import annotations

from tracing import Span, self_times


def _len_arg(index: int):
    return lambda args, kwargs, result, exc: {"n": len(args[index])}


def _found(args, kwargs, result, exc):
    return {"found": exc is None and result is not None}


def _plan(args, kwargs, result, exc):
    # Distinct content keys: digest-equal configs collapse to one.
    return {"points": len(args[0]),
            "unique": len(set(result.keys.values())) if result is not None else 0}


def _steps(args, kwargs, result, exc):
    return {"n": result.steps if result is not None else 0}


def _converged(args, kwargs, result, exc):
    return {"converged": type(exc).__name__ == "ConvergedExit"}


_PASSES = {
    "reduce_strength": "strength",
    "merge_induction_variables": "livm",
    "allocate_registers": "regalloc",
    "predict_checkpoint_defs": "partition",
    "partition_regions": "partition",
    "insert_eager_checkpoints": "checkpoints",
    "prune_checkpoints": "pruning",
    "sink_checkpoints": "licm",
    "schedule_program": "scheduling",
    "build_recovery_map": "recovery",
}
COMPILER_PASSES = tuple(dict.fromkeys(_PASSES.values()))

_RUNNER = "repro.harness.runner"
_ARTIFACTS = "repro.harness.artifacts:ArtifactCache"
_CAMPAIGN = "repro.faults.campaign"

#: (owner, attribute, span name, measure). Owners are the bindings the
#: callers look up; see tracing.py for why both runner and pipeline
#: bindings of the compiler entry points are wrapped.
TARGETS = [
    ("repro.runtime.multisim", "decode_feed", "multisim.decode", _len_arg(0)),
    ("repro.runtime.multisim", "run_lane", "multisim.lane", _len_arg(0)),
    (_RUNNER, "execute_fast", "fastsim.run", _steps),
    ("repro.arch.core:InOrderCore", "run", "core.run", _len_arg(1)),
    (_RUNNER, "compile_program", "compiler.compile", None),
    (_RUNNER, "compile_baseline", "compiler.compile", None),
    ("repro.compiler.pipeline", "compile_program", "compiler.compile", None),
    ("repro.compiler.pipeline", "compile_baseline", "compiler.compile", None),
    *(("repro.compiler.pipeline", fn, f"compiler.{p}", None)
      for fn, p in _PASSES.items()),
    ("repro.runtime.trace:TraceSummary", "__init__", "runner.summary", None),
    (f"{_RUNNER}:RunCache", "stats", "runner.stats", _found),
    (f"{_RUNNER}:RunCache", "peek_stats", "runner.stats", _found),
    *((_ARTIFACTS, f"load_{kind}", "artifacts.load", _found)
      for kind in ("trace", "stats", "golden")),
    *((_ARTIFACTS, f"store_{kind}", "artifacts.store", None)
      for kind in ("trace", "stats", "golden")),
    ("repro.harness.sweep", "plan_sweep", "sweep.plan", _plan),
    ("repro.harness.experiments", "run_sweep", "sweep.run", None),
    ("repro.harness.experiments", "figure_suite", "experiments.suite", None),
    ("repro.runtime.machine:ResilientMachine", "run", "machine.run", _converged),
    (_CAMPAIGN, "run_with_injection", "injector.run", None),
    (_CAMPAIGN, "record_golden_run", "snapshot.golden", None),
    ("repro.faults.injector", "prepare_accelerated_run", "snapshot.restore", None),
    (_CAMPAIGN, "_run_shard", "campaign.shard", None),
    # The reference interpreter builds the campaign's golden image and
    # horizon; wrapped only so the shares attribute its time.
    ("repro.faults.injector", "execute", "interpreter.run", None),
    (_CAMPAIGN, "execute", "interpreter.run", None),
]

#: Spans whose descendants are not recorded (their time stays in the
#: folded span's self time).
FOLD = ("snapshot.golden",)

#: Per-layer metric names and units, in BENCHMARK.json order.
METRICS: dict[str, str] = {
    "multisim.lane_ns_per_entry": "ns",
    "multisim.lanes": "count",
    "multisim.lanes_per_decode": "ratio",
    "multisim.decode_ns_per_entry": "ns",
    "multisim.decodes": "count",
    "fastsim.ns_per_instr": "ns",
    "fastsim.runs": "count",
    "fastsim.instrs": "count",
    "core.ns_per_entry": "ns",
    "core.runs": "count",
    "compiler.compile_ms": "ms",
    "compiler.programs": "count",
    **{f"compiler.{p}_ms": "ms" for p in COMPILER_PASSES},
    "runner.summary_ms": "ms",
    "runner.stats_calls": "count",
    "runner.memo_hit_ratio": "ratio",
    "artifacts.load_ms": "ms",
    "artifacts.loads": "count",
    "artifacts.load_hit_ratio": "ratio",
    "artifacts.store_ms": "ms",
    "artifacts.stores": "count",
    "artifacts.disk_mb": "MB",
    "sweep.plan_ms": "ms",
    "sweep.points": "count",
    "sweep.points_unique": "count",
    "experiments.self_ms": "ms",
    "machine.run_ms": "ms",
    "machine.runs": "count",
    "machine.converged_ratio": "ratio",
    "injector.classify_us": "us",
    "snapshot.golden_ms": "ms",
    "snapshot.goldens": "count",
    "snapshot.restore_us": "us",
    "snapshot.restores": "count",
    "campaign.shard_ms": "ms",
    "campaign.shards": "count",
}

#: Metrics that must repeat exactly across passes and runs of one seed.
EXACT = tuple(
    name for name, unit in METRICS.items()
    if unit == "count" or name.endswith("_ratio")
)


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], disk_mb: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one pass from its span tree."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_ns(name: str) -> int:
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    stats_spans = by_name.get("runner.stats", ())
    memo_hits = sum(1 for s in stats_spans
                    if s.attrs.get("found") and not s.children)
    loads = by_name.get("artifacts.load", ())
    machine = by_name.get("machine.run", ())
    out = {
        "multisim.lane_ns_per_entry": _div(self_ns("multisim.lane"),
                                           attr_sum("multisim.lane", "n")),
        "multisim.lanes": count("multisim.lane"),
        "multisim.lanes_per_decode": _div(count("multisim.lane"),
                                          count("multisim.decode")),
        "multisim.decode_ns_per_entry": _div(self_ns("multisim.decode"),
                                             attr_sum("multisim.decode", "n")),
        "multisim.decodes": count("multisim.decode"),
        "fastsim.ns_per_instr": _div(self_ns("fastsim.run"),
                                     attr_sum("fastsim.run", "n")),
        "fastsim.runs": count("fastsim.run"),
        "fastsim.instrs": attr_sum("fastsim.run", "n"),
        "core.ns_per_entry": _div(self_ns("core.run"), attr_sum("core.run", "n")),
        "core.runs": count("core.run"),
        "compiler.compile_ms": sum(s.duration for s in
                                   by_name.get("compiler.compile", ())) / 1e6,
        "compiler.programs": count("compiler.compile"),
        **{f"compiler.{p}_ms": self_ns(f"compiler.{p}") / 1e6
           for p in COMPILER_PASSES},
        "runner.summary_ms": self_ns("runner.summary") / 1e6,
        "runner.stats_calls": len(stats_spans),
        "runner.memo_hit_ratio": _div(memo_hits, len(stats_spans)),
        "artifacts.load_ms": self_ns("artifacts.load") / 1e6,
        "artifacts.loads": len(loads),
        "artifacts.load_hit_ratio": _div(
            sum(1 for s in loads if s.attrs.get("found")), len(loads)),
        "artifacts.store_ms": self_ns("artifacts.store") / 1e6,
        "artifacts.stores": count("artifacts.store"),
        "artifacts.disk_mb": disk_mb,
        "sweep.plan_ms": self_ns("sweep.plan") / 1e6,
        "sweep.points": attr_sum("sweep.plan", "points"),
        "sweep.points_unique": attr_sum("sweep.plan", "unique"),
        "experiments.self_ms": self_ns("experiments.suite") / 1e6,
        "machine.run_ms": self_ns("machine.run") / 1e6,
        "machine.runs": len(machine),
        "machine.converged_ratio": _div(
            sum(1 for s in machine if s.attrs.get("converged")), len(machine)),
        "injector.classify_us": _div(self_ns("injector.run"),
                                     count("injector.run")) / 1e3,
        "snapshot.golden_ms": self_ns("snapshot.golden") / 1e6,
        "snapshot.goldens": count("snapshot.golden"),
        "snapshot.restore_us": _div(self_ns("snapshot.restore"),
                                    count("snapshot.restore")) / 1e3,
        "snapshot.restores": count("snapshot.restore"),
        "campaign.shard_ms": self_ns("campaign.shard") / 1e6,
        "campaign.shards": count("campaign.shard"),
    }
    assert list(out) == list(METRICS)
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each span name's self time as a share of the root spans' time.

    Compiler passes are summed into one ``compiler`` entry; the root's
    own self time is what no wrapped layer accounts for.
    """
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    shares: dict[str, float] = {}
    for span in spans:
        name = "compiler" if span.name.startswith("compiler.") else span.name
        if span.parent is None:
            name = "unattributed"
        shares[name] = shares.get(name, 0.0) + _div(selfs[span.id], total)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
