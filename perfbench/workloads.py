"""The benchmark's four workloads: inputs, one timed pass, and checks.

Each workload is a closed loop with one caller in one process: the next
operation starts only when the previous one has returned. An operation
is one design point (``figures-*``, ``solo-points``) or one injected run
(``inject``). A pass is one call of the layer under test over the whole
input; run.py repeats passes and reports medians.

Why these four:

* ``figures-cold`` — ``figure_suite`` from a fresh ``RunCache`` and an
  empty on-disk ``ArtifactCache``: what a first-time user pays. The only
  workload where the multi-lane timing kernel does most of the work,
  and the one that writes artifacts.
* ``figures-warm`` — the same suite in a new process against the disk
  cache one earlier cold process filled: the timing layer does no work;
  artifact reads, the compiler, ``TraceSummary`` and the functional
  re-runs of traces that cache lacks do. A change that helps one side
  of the artifact layer and hurts the other shows here.
* ``solo-points`` — one ``simulate()`` per (benchmark, scheme): the path
  behind ``repro run`` and service ``run`` jobs, with no lane sharing.
* ``inject`` — one ``CampaignRunner`` campaign, snapshot acceleration on,
  empty golden memo, disk cache off: the fault-injection path, where no
  timing model runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.arch.config import CoreConfig
from repro.arch.core import InOrderCore
from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults import campaign
from repro.faults.injector import (
    golden_memory,
    injection_from_dict,
    outcome_to_dict,
    run_with_injection,
)
from repro.harness import experiments
from repro.harness.artifacts import ArtifactCache, code_digest
from repro.harness.runner import RunCache, default_schemes, simulate
from repro.harness.sweep import lattice
from repro.runtime.multisim import decode_feed, run_lane
from repro.workloads.suites import all_profiles, load_workload

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: The 36 benchmarks in twelve strata of three. A figures sample takes
#: one benchmark per stratum, so every seed's sample costs about the
#: same on both figures workloads and holds about as many trace entries
#: (peak RSS). The strata minimise the spread within each stratum of
#: the benchmark's one-benchmark cold suite time, warm suite time and
#: trace entries, each normalised by its mean (calibrated times from a
#: 2-core x86-64 container, Python 3.11.7). Expected spread between
#: seeds' samples, quartile distance over median: cold 2.7 %, warm
#: 5.2 %, entries 6.1 %.
STRATA = (
    ("CPU2006.xalan", "SPLASH3.radiosity", "CPU2017.xz"),
    ("SPLASH3.water-sp", "CPU2006.gobmk", "CPU2017.nab"),
    ("CPU2006.omnetpp", "CPU2017.xalan", "CPU2006.bzip2"),
    ("SPLASH3.fft", "CPU2017.x264", "CPU2017.roms"),
    ("CPU2017.fotonik3d", "CPU2017.exchange2", "CPU2006.libquan"),
    ("CPU2017.bwaves", "SPLASH3.ocean-ng", "CPU2006.leslie3d"),
    ("CPU2006.mcf", "CPU2006.perlbench", "CPU2017.mcf"),
    ("CPU2006.astar", "CPU2017.leela", "SPLASH3.radix"),
    ("CPU2006.bwaves", "CPU2006.hmmer", "CPU2006.gcc"),
    ("CPU2017.deepsjeng", "CPU2006.soplex", "CPU2017.cactubssn"),
    ("CPU2006.milc", "CPU2006.zeusmp", "SPLASH3.cholesky"),
    ("CPU2006.gemsfdtd", "SPLASH3.lu-cg", "CPU2017.lbm"),
)

#: The campaign benchmark. Its campaigns spread least between campaign
#: seeds (about 7 % between quartiles of 38 seeds); bzip2 and perlbench
#: cost 15-30 % more per campaign and spread wider, and leela's process
#: is 12 % larger and one of its seeds holds a ten-second injection.
INJECT_UID = "CPU2006.astar"
INJECT_COUNT = 160
#: Seeds map onto this many committed campaign cases (each with a
#: recorded aggregate digest in reference.json).
INJECT_CASES = 32

ORACLE_POINTS = 4
ORACLE_INJECTIONS = 3


# -- inputs from the seed ----------------------------------------------------


def figure_sample(seed: int) -> list[str]:
    rng = random.Random(f"figures:{seed}")
    return sorted(rng.choice(stratum) for stratum in STRATA)


def solo_order(seed: int) -> list[tuple[str, str]]:
    points = [(p.uid, name) for p in all_profiles()
              for name, _, _ in default_schemes()]
    random.Random(f"solo:{seed}").shuffle(points)
    return points


def inject_case(seed: int) -> tuple[str, int]:
    """(benchmark, campaign seed) of the committed case for ``seed``."""
    return INJECT_UID, seed % INJECT_CASES


def inject_key(uid: str, campaign_seed: int) -> str:
    return f"{uid}|seed={campaign_seed}|count={INJECT_COUNT}"


# -- canonical outputs -------------------------------------------------------


def digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def plain(value: object) -> object:
    """Plain-data projection of a figure-suite result."""
    if isinstance(value, experiments.Series):
        return {"name": value.name, "per_benchmark": value.per_benchmark,
                "geomean": value.geomean}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "__dict__"):
        return {k: plain(v) for k, v in vars(value).items()}
    return value


def split_figures(tree: object, uids: list[str]) -> tuple[dict[str, str], str, bool]:
    """Per-benchmark digests, the digest of everything not keyed by a
    benchmark, and whether every geomean matches its per-benchmark
    values. Per-benchmark values do not depend on which other
    benchmarks are in the sample, so one reference serves every seed."""
    slices: dict[str, list] = {uid: [] for uid in uids}
    common: list = []
    geomeans_ok = True

    def walk(node: object, path: tuple) -> None:
        nonlocal geomeans_ok
        if isinstance(node, dict):
            if "per_benchmark" in node and "geomean" in node:
                values = list(node["per_benchmark"].values())
                expect = math.exp(sum(math.log(v) for v in values) / len(values))
                geomeans_ok &= math.isclose(node["geomean"], expect,
                                            rel_tol=1e-12)
            for key, child in node.items():
                if key in slices:
                    slices[key].append([list(path), child])
                elif key != "geomean":
                    walk(child, (*path, key))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, (*path, i))
        else:
            common.append([list(path), node])

    walk(tree, ())
    return {u: digest(s) for u, s in slices.items()}, digest(common), geomeans_ok


def stats_digest(stats: object) -> str:
    return digest(dataclasses.asdict(stats))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


# -- workloads ---------------------------------------------------------------


@dataclasses.dataclass
class PassResult:
    window: tuple[int, int]  # perf_counter_ns around the timed call(s)
    ops: int
    failed: int
    disk_mb: float = 0.0
    sim_instrs: int = 0
    latencies_s: list[float] = dataclasses.field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.window[1] - self.window[0]) / 1e9


class Workload:
    name = ""
    op_label = "points"  # what one operation is, for the report

    def __init__(self, seed: int, work_dir: Path, reference: dict) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference

    def setup(self) -> None:
        """Generate the inputs (cheap; set-up time is measured around it)."""

    def describe(self) -> str:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def oracle(self) -> tuple[int, int]:
        """Spot checks against an independent path: (checked, failed)."""
        raise NotImplementedError

    def extras(self) -> dict[str, float]:
        """Simulated outputs of the last pass worth printing."""
        return {}


class _Figures(Workload):
    def setup(self) -> None:
        self.uids = figure_sample(self.seed)
        self.points = lattice(self.uids, experiments.suite_pairs())
        code_digest()  # once per process, before the first cache key
        self.cache: RunCache | None = None
        self.tree: object = None

    def describe(self) -> str:
        return (f"figure_suite over {len(self.uids)} benchmarks, "
                f"{len(self.points)} design points: {', '.join(self.uids)}")

    def _suite(self, cache_dir: Path) -> tuple[tuple[int, int], object, RunCache]:
        # Drop the previous pass's traces first, so peak RSS is one pass's.
        self.cache = self.tree = None
        cache = RunCache(persistent=ArtifactCache(cache_dir))
        start = time.perf_counter_ns()
        result = experiments.figure_suite(self.uids, cache=cache)
        window = (start, time.perf_counter_ns())
        return window, plain(result), cache

    def _failed_points(self, tree: object) -> int:
        ref = self.reference["figures"]
        uid_digests, common, geomeans_ok = split_figures(tree, self.uids)
        if common != ref["common"] or not geomeans_ok:
            return len(self.points)
        per_uid = len(self.points) // len(self.uids)
        return per_uid * sum(uid_digests[u] != ref["uids"].get(u)
                             for u in self.uids)

    def extras(self) -> dict[str, float]:
        return {"sim_turnpike_norm": self.tree["fig19"]["10"]["geomean"]}

    def oracle(self) -> tuple[int, int]:
        """Timing oracle: decode_feed + run_lane and InOrderCore on the
        pass's own trace must both equal the stats the suite used."""
        cache = self.cache
        rng = random.Random(f"oracle:{self.seed}")
        failed = 0
        for p in rng.sample(self.points, ORACLE_POINTS):
            digest_ = cache.program_digest(p.uid, p.compiler)
            trace = cache.prepared_by_digest(p.uid, p.compiler, digest_).trace
            solo = InOrderCore(p.core, p.hardware).run(trace)
            feed, cache_stats, meta = decode_feed(trace, p.core, p.hardware.enabled)
            lane = run_lane(feed, p.core, p.hardware, cache_stats, meta)
            used = cache.peek_stats(p.uid, p.compiler, p.hardware, p.core)
            failed += not (solo == lane == used)
        return ORACLE_POINTS, failed


class FiguresCold(_Figures):
    name = "figures-cold"

    passes = 0

    def run_pass(self) -> PassResult:
        self.passes += 1
        cache_dir = self.work_dir / f"cold-{self.passes}"
        window, self.tree, self.cache = self._suite(cache_dir)
        # Simulated instructions of the points this pass computed (one
        # per distinct compiled program x hardware x core).
        computed: dict[tuple, int] = {}
        for p in self.points:
            key = (p.uid, self.cache.program_digest(p.uid, p.compiler),
                   p.hardware, p.core)
            if key not in computed:
                stats = self.cache.peek_stats(p.uid, p.compiler, p.hardware, p.core)
                computed[key] = stats.instructions
        return PassResult(window, len(self.points), self._failed_points(self.tree),
                          disk_mb=dir_mb(cache_dir),
                          sim_instrs=sum(computed.values()))


class FiguresWarm(_Figures):
    """Every pass starts from the disk cache exactly as one earlier cold
    process left it: files a pass adds are removed after it, outside
    the timed section. (That process does not leave every trace a later
    suite looks up, so each pass still runs some functional executions
    and stores their traces; see NOTES.md.)"""

    name = "figures-warm"

    def fill(self) -> float:
        """Fill ``fill_dir`` with a cold pass in a separate process, as
        an earlier ``repro`` invocation would; returns its pass time."""
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", self.name,
             "--seed", str(self.seed), "--role", "fill",
             "--work-dir", str(self.work_dir)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        self.cold_digest = report["digest"]
        self.filled = set(self.fill_dir.rglob("*"))
        return report["fill_s"]

    @property
    def fill_dir(self) -> Path:
        return self.work_dir / "warm-cache"

    def fill_here(self) -> dict:
        """The child side of :meth:`fill`."""
        window, tree, _ = self._suite(self.fill_dir)
        return {"window": window, "digest": digest(tree)}

    def run_pass(self) -> PassResult:
        window, self.tree, self.cache = self._suite(self.fill_dir)
        failed = self._failed_points(self.tree)
        if digest(self.tree) != self.cold_digest:
            failed = len(self.points)  # warm output must equal cold output
        disk_mb = dir_mb(self.fill_dir)
        for path in sorted(set(self.fill_dir.rglob("*")) - self.filled, reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        return PassResult(window, len(self.points), failed, disk_mb=disk_mb)


class SoloPoints(Workload):
    name = "solo-points"

    def setup(self) -> None:
        self.order = solo_order(self.seed)
        self.schemes = {name: (c, h) for name, c, h in default_schemes()}
        self.results: list = []

    def describe(self) -> str:
        return (f"simulate() per point, {len(self.order)} points "
                f"(36 benchmarks x {len(self.schemes)} schemes), seeded order")

    def run_pass(self) -> PassResult:
        self.cache = RunCache(persistent=None)
        results = []
        latencies = []
        start = time.perf_counter_ns()
        for uid, scheme in self.order:
            compiler, hardware = self.schemes[scheme]
            t0 = time.perf_counter()
            stats = simulate(uid, compiler, hardware, cache=self.cache)
            latencies.append(time.perf_counter() - t0)
            results.append(stats)
        window = (start, time.perf_counter_ns())
        self.results = results
        ref = self.reference["solo"]
        failed = sum(stats_digest(s) != ref.get(f"{uid}|{scheme}")
                     for (uid, scheme), s in zip(self.order, results))
        return PassResult(window, len(self.order), failed,
                          sim_instrs=sum(s.instructions for s in results),
                          latencies_s=latencies)

    def oracle(self) -> tuple[int, int]:
        """Lane oracle: decode_feed + run_lane on the point's trace must
        equal the InOrderCore result simulate() returned."""
        rng = random.Random(f"oracle:{self.seed}")
        failed = 0
        for i in rng.sample(range(len(self.order)), ORACLE_POINTS):
            uid, scheme = self.order[i]
            compiler, hardware = self.schemes[scheme]
            trace = self.cache.prepared(uid, compiler).trace
            core = CoreConfig()  # simulate()'s default core
            feed, cache_stats, meta = decode_feed(trace, core, hardware.enabled)
            lane = run_lane(feed, core, hardware, cache_stats, meta)
            failed += lane != self.results[i]
        return ORACLE_POINTS, failed


class Inject(Workload):
    name = "inject"
    op_label = "injected runs"

    def setup(self) -> None:
        self.uid, campaign_seed = inject_case(self.seed)
        self.spec = campaign.CampaignSpec(
            uid=self.uid, count=INJECT_COUNT, seed=campaign_seed)
        self.report = None

    def describe(self) -> str:
        spec = self.spec
        return (f"CampaignRunner on {spec.uid}, campaign seed {spec.seed}: "
                f"{spec.count} injections x {len(spec.variants)} variants "
                f"over {', '.join(spec.targets)}; accel on, disk cache off")

    def run_pass(self) -> PassResult:
        # Empty in-process memos: each pass compiles and records its
        # golden runs as a fresh campaign process would.
        campaign._GOLDEN_CACHE.clear()
        campaign._WORKER_CACHE.clear()
        runner = campaign.CampaignRunner(self.spec, accel=campaign.AccelOptions())
        start = time.perf_counter_ns()
        self.report = runner.run()
        window = (start, time.perf_counter_ns())
        ops = self.spec.count * len(self.spec.variants)
        expect = self.reference["inject"].get(inject_key(self.uid, self.spec.seed))
        failed = ops if digest(self.report.to_json()) != expect else 0
        return PassResult(window, ops, failed)

    def oracle(self) -> tuple[int, int]:
        """Acceleration oracle: re-run sampled injections from cycle 0
        (acceleration off) and compare with the campaign's outcomes."""
        spec = self.spec
        workload = load_workload(spec.uid)
        compiled = compile_program(workload.program, turnpike_config())
        memory = workload.fresh_memory()
        golden = golden_memory(compiled, memory)
        rng = random.Random(f"oracle:{self.seed}")
        checked = failed = 0
        for index in rng.sample(range(spec.count), ORACLE_INJECTIONS):
            record = self.report.records[index]
            injection = injection_from_dict(record["injection"])
            for variant in spec.variants:
                config = campaign.VARIANT_CONFIGS[variant](spec.wcdl)
                outcome = run_with_injection(compiled, config, memory, injection,
                                             golden, max_steps=spec.max_steps)
                checked += 1
                failed += outcome_to_dict(outcome) != record["outcomes"][variant]
        return checked, failed


WORKLOADS = {w.name: w for w in (FiguresCold, FiguresWarm, SoloPoints, Inject)}
