"""Compile / execute / simulate pipeline with memoisation.

Every experiment needs the same expensive artefacts — compiled programs,
dynamic traces, timing results — for many (benchmark, compiler config,
hardware config) combinations. This module produces them through two
cooperating layers:

1. an in-process :class:`RunCache` (thread-safe; every lookup/insert
   happens under one lock, so concurrent ``prepared()`` calls and
   ``clear()`` are safe);
2. a persistent :class:`~repro.harness.artifacts.ArtifactCache` shared
   across processes and sessions (keyed by a digest of the simulator
   source, so stale artefacts can never survive a code change).

Functional work has one identity in both layers: the benchmark uid plus
the structural :func:`~repro.isa.program.program_digest` of the compiled
program. A compiler config is only ever a way to *find* that digest —
in memory, then on disk, and by compiling only when both miss. Traces
are memoised and persisted by (uid, digest) and stats by (uid, digest,
hardware, core), so digest-equal configs share one functional execution
and one timing result, in one process and across processes.

Fanning design points out across cores is the sweep engine's job
(:func:`repro.harness.sweep.run_sweep`). Per-process caches are
**independent**: each worker process builds its own ``RunCache`` (a
fork inherits a snapshot of the parent's, spawn starts empty) and they
never synchronise in memory. All cross-process reuse flows through the
persistent artifact layer, whose writes are atomic — two workers may
race to produce the same artefact and both succeed, one file winning
harmlessly.

Functional execution runs on the fast backend
(:mod:`repro.runtime.fastsim`). The reference interpreter is its
oracle: the differential parity suite in
``tests/test_fastsim_parity.py`` holds the two bit-identical.

Timing runs through the multi-lane kernel
(:func:`repro.runtime.multisim.run_lanes`) — a solo point is simply one
lane. The object-model core of :mod:`repro.arch.core` stays as the
readable reference the kernel is held byte-identical to
(``tests/test_multisim_parity.py``).
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import replace

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.compiler.config import CompilerConfig, turnpike_config, turnstile_config
from repro.compiler.pipeline import CompiledProgram, compile_baseline, compile_program
from repro.harness.artifacts import ArtifactCache
from repro.isa.program import program_digest
from repro.runtime.fastsim import execute_fast
from repro.runtime.multisim import run_lanes
from repro.runtime.trace import TraceSummary
from repro.workloads.generator import Workload, build_workload
from repro.workloads.suites import all_profiles, profile as lookup_profile


def _baseline_config() -> CompilerConfig:
    return CompilerConfig(
        eager_checkpointing=False,
        checkpoint_pruning=False,
        licm_sinking=False,
        induction_variable_merging=False,
        instruction_scheduling=False,
        store_aware_regalloc=False,
        name="baseline",
    )


class PreparedRun:
    """The functional products of one (benchmark, compiled program) pair.

    The trace is always materialised. ``config`` is the first compiler
    config this process asked for with the run's program digest; the
    trace and summary are valid for every digest-equal config.
    ``.workload`` and ``.compiled`` come from the owning
    :class:`RunCache`'s memos, so a run served from the persistent trace
    cache never pays compiler time unless a caller asks for
    ``.compiled`` (e.g. the code-size study), and then pays it at most
    once per (uid, config). The owner is held by weak reference: the
    cache holds its runs, and a strong reference back would leave every
    trace to the cyclic garbage collector.
    """

    __slots__ = ("uid", "config", "trace", "_owner", "_summary")

    def __init__(
        self,
        uid: str,
        config: CompilerConfig,
        trace: list[tuple],
        owner: RunCache,
    ) -> None:
        self.uid = uid
        self.config = config
        self.trace = trace
        self._owner = weakref.ref(owner)
        self._summary: TraceSummary | None = None

    def _cache(self) -> RunCache:
        # An owner already collected degrades to an unshared memo.
        return self._owner() or RunCache(persistent=None)

    @property
    def workload(self) -> Workload:
        return self._cache().workload(self.uid)

    @property
    def compiled(self) -> CompiledProgram:
        return self._cache().compiled_program(self.uid, self.config)

    @property
    def summary(self) -> TraceSummary:
        if self._summary is None:
            self._summary = TraceSummary(self.trace)
        return self._summary


#: In-process stats identity: (uid, program digest, hardware, core).
StatsKey = tuple[str, str, ResilienceHardwareConfig, CoreConfig]


class RunCache:
    """Process-wide memoisation of workloads, compiles, traces, stats.

    Compiles and program digests are memoised by (uid, config), traces
    by (uid, digest) and stats by (uid, digest, hardware, core); see the
    module docstring. Thread-safe: all dictionary access is serialised
    through one re-entrant lock, so ``prepared()`` from several threads
    and a concurrent ``clear()`` cannot corrupt state (a cleared cache
    simply recomputes). Instances in different processes are
    independent by design — cross-process reuse goes through
    ``persistent``.
    """

    def __init__(
        self, persistent: ArtifactCache | None | str = "default"
    ) -> None:
        if persistent == "default":
            persistent = ArtifactCache.default()
        self.persistent: ArtifactCache | None = persistent  # type: ignore[assignment]
        self._lock = threading.RLock()
        self._workloads: dict[str, Workload] = {}
        # Keyed by the full (frozen) compiler config: two configs that
        # merely share a display name must not collide.
        self._compiled: dict[tuple[str, CompilerConfig], CompiledProgram] = {}
        self._digests: dict[tuple[str, CompilerConfig], str] = {}
        self._prepared: dict[tuple[str, str], PreparedRun] = {}
        self._stats: dict[StatsKey, SimStats] = {}

    def workload(self, uid: str) -> Workload:
        with self._lock:
            wl = self._workloads.get(uid)
            if wl is None:
                wl = build_workload(lookup_profile(uid))
                self._workloads[uid] = wl
            return wl

    def compiled_program(
        self, uid: str, config: CompilerConfig
    ) -> CompiledProgram:
        """Compile one (benchmark, config) pair — no functional run."""
        key = (uid, config)
        with self._lock:
            compiled = self._compiled.get(key)
            if compiled is None:
                workload = self.workload(uid)
                if config.name == "baseline":
                    compiled = compile_baseline(workload.program)
                else:
                    compiled = compile_program(workload.program, config)
                self._compiled[key] = compiled
            return compiled

    def program_digest(self, uid: str, config: CompilerConfig) -> str:
        """Structural digest of the compiled program (uid-free).

        Looked up in memory, then on disk; compiled (and stored) only
        when both miss. Two configs with the same digest compile to the
        same program and therefore produce the same committed stream, so
        the digest is what traces and stats are keyed by.
        """
        key = (uid, config)
        with self._lock:
            digest = self._digests.get(key)
            if digest is not None:
                return digest
            disk_key = None
            if self.persistent is not None:
                disk_key = self.persistent.digest_key(uid, config)
                digest = self.persistent.load_digest(disk_key)
            if digest is None:
                digest = program_digest(self.compiled_program(uid, config).program)
                if disk_key is not None:
                    self.persistent.store_digest(disk_key, digest)
            self._digests[key] = digest
            return digest

    def prepared(self, uid: str, config: CompilerConfig) -> PreparedRun:
        """The functional run of ``config``'s program, shared by every
        digest-equal config."""
        with self._lock:
            digest = self.program_digest(uid, config)
            run = self._prepared.get((uid, digest))
            if run is not None:
                return run
            disk_key = None
            trace = None
            if self.persistent is not None:
                disk_key = self.persistent.trace_key(uid, digest)
                trace = self.persistent.load_trace(disk_key)
            if trace is None:
                result = execute_fast(
                    self.compiled_program(uid, config).program,
                    self.workload(uid).fresh_memory(),
                    collect_trace=True,
                )
                assert result.trace is not None
                trace = result.trace
                if disk_key is not None:
                    self.persistent.store_trace(disk_key, trace)
            run = self._prepared[(uid, digest)] = PreparedRun(uid, config, trace, self)
            return run

    def prepared_by_digest(
        self, uid: str, config: CompilerConfig, digest: str
    ) -> PreparedRun:
        """Alias of :meth:`prepared` (``digest`` is unused), kept for
        existing callers."""
        return self.prepared(uid, config)

    def baseline(self, uid: str, core: CoreConfig | None = None) -> PreparedRun:
        return self.prepared(uid, _baseline_config())

    def _memo_stats(self, key: StatsKey) -> SimStats | None:
        """In-memory, then on-disk stats for ``key`` (caller holds the lock)."""
        stats = self._stats.get(key)
        if stats is None and self.persistent is not None:
            stats = self.persistent.load_stats(self.persistent.stats_key(*key))
            if stats is not None:
                self._stats[key] = stats
        return stats

    def put_stats(self, key: StatsKey, stats: SimStats) -> None:
        """Insert computed stats (a solo run or the sweep engine's lanes)
        into both memoisation layers, so later lookups hit."""
        with self._lock:
            self._stats[key] = stats
            if self.persistent is not None:
                self.persistent.store_stats(self.persistent.stats_key(*key), stats)

    def peek_stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None = None,
    ) -> SimStats | None:
        """Memoised/persisted stats if present.

        May compile to learn the program digest; never executes or
        times anything.
        """
        with self._lock:
            digest = self.program_digest(uid, compiler)
            stats = self._memo_stats((uid, digest, hardware, core or CoreConfig()))
            return None if stats is None else replace(stats, cache=dict(stats.cache))

    def stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None = None,
    ) -> SimStats:
        """Timing stats for one combination, memoised at every layer."""
        core = core or CoreConfig()
        with self._lock:
            key = (uid, self.program_digest(uid, compiler), hardware, core)
            stats = self._memo_stats(key)
            if stats is None:
                trace = self.prepared(uid, compiler).trace
                stats = run_lanes(trace, [(core, hardware)])[0]
                self.put_stats(key, stats)
            # Defensive copy: cached stats must survive caller mutation.
            return replace(stats, cache=dict(stats.cache))

    def baseline_cycles(self, uid: str, core: CoreConfig | None = None) -> float:
        return self.stats(uid, *baseline_scheme(), core).cycles

    def clear(self) -> None:
        """Drop all in-memory memoisation (atomically).

        The persistent on-disk layer is deliberately untouched — use
        ``cache.persistent.clear()`` (or ``repro cache clear``) for that.
        """
        with self._lock:
            self._workloads.clear()
            self._compiled.clear()
            self._digests.clear()
            self._prepared.clear()
            self._stats.clear()


GLOBAL_CACHE = RunCache()


def simulate(
    uid: str,
    compiler: CompilerConfig,
    hardware: ResilienceHardwareConfig,
    core: CoreConfig | None = None,
    cache: RunCache | None = None,
) -> SimStats:
    """Timing-simulate one benchmark under a scheme."""
    cache = cache or GLOBAL_CACHE
    return cache.stats(uid, compiler, hardware, core)


def normalized_time(
    uid: str,
    compiler: CompilerConfig,
    hardware: ResilienceHardwareConfig,
    core: CoreConfig | None = None,
    cache: RunCache | None = None,
) -> float:
    """The paper's y-axis: resilient cycles / baseline cycles (>= ~1)."""
    cache = cache or GLOBAL_CACHE
    stats = simulate(uid, compiler, hardware, core, cache)
    return stats.cycles / cache.baseline_cycles(uid, core)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of empty list")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def baseline_scheme():
    """(compiler, hardware) pair for the unprotected baseline."""
    return _baseline_config(), ResilienceHardwareConfig.baseline()


def turnstile_scheme(wcdl: int = 10, sb_size: int = 4):
    """(compiler, hardware) pair for the Turnstile baseline scheme."""
    return (
        turnstile_config(sb_size),
        ResilienceHardwareConfig.turnstile(wcdl=wcdl, sb_size=sb_size),
    )


def turnpike_scheme(
    wcdl: int = 10, sb_size: int = 4, clq_kind: str = "compact", clq_size: int = 2
):
    """(compiler, hardware) pair for the full Turnpike scheme."""
    return (
        turnpike_config(sb_size),
        ResilienceHardwareConfig.turnpike(
            wcdl=wcdl, sb_size=sb_size, clq_kind=clq_kind, clq_size=clq_size
        ),
    )


def default_benchmarks() -> list[str]:
    return [p.uid for p in all_profiles()]


def run_report_text(
    uid: str,
    scheme: str = "turnpike",
    wcdl: int = 10,
    sb_size: int = 4,
) -> str:
    """The ``repro run`` report for one benchmark, as text.

    Shared by the CLI handler and anything that needs its exact output
    (the batch service executes jobs through the CLI entry point, so
    keeping this single-sourced is what makes service results
    byte-identical to direct invocations).
    """
    if scheme == "baseline":
        compiler, hardware = baseline_scheme()
    elif scheme == "turnstile":
        compiler, hardware = turnstile_scheme(wcdl=wcdl, sb_size=sb_size)
    else:
        compiler, hardware = turnpike_scheme(wcdl=wcdl, sb_size=sb_size)
    stats = simulate(uid, compiler, hardware)
    base_cycles = GLOBAL_CACHE.baseline_cycles(uid)

    lines = [
        f"benchmark:        {uid}",
        f"scheme:           {scheme} (WCDL={wcdl}, SB={sb_size})",
        f"instructions:     {stats.instructions}",
        f"cycles:           {stats.cycles:.0f}",
        f"normalized time:  {stats.cycles / base_cycles:.3f}",
        f"IPC:              {stats.ipc:.2f}",
        f"regions:          {stats.regions} "
        f"(avg {stats.dynamic_region_size:.1f} instr)",
        f"stores:           {stats.warfree_released} WAR-free released, "
        f"{stats.colored_released} colored, {stats.quarantined} quarantined",
        f"stalls:           SB {stats.sb_stall_cycles:.0f}, "
        f"data {stats.data_stall_cycles:.0f}, "
        f"branch {stats.branch_stall_cycles:.0f} cycles",
    ]
    return "\n".join(lines)


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument > REPRO_WORKERS env > 1 (sequential)."""
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        except ValueError:
            workers = 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def default_schemes() -> list[tuple[str, CompilerConfig, ResilienceHardwareConfig]]:
    """The scheme triples every figure sweep touches first."""
    return [
        ("baseline", *baseline_scheme()),
        ("turnstile", *turnstile_scheme()),
        ("turnpike", *turnpike_scheme()),
    ]
