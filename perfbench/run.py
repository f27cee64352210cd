"""The repository's benchmark: one workload, closed loop, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0

Workloads: figures-cold, figures-warm, solo-points, inject (see
workloads.py for what each runs and why). The seed picks the inputs;
the same seed gives the same inputs. Passes repeat until ``--seconds``
have been measured; timings are medians over passes.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` runs two untraced passes, then at least two passes with
spans recorded around each layer's public functions, and reports the
per-layer metrics (layers.py). The tracing overhead is the median
traced pass minus the second untraced pass (the first one also pays
the process's own warm-up). The spans are written to
``.perfbench_work/spans-<workload>-seed<n>.jsonl``.

Every output is checked outside the timed section: against digests in
reference.json, against an independent oracle path, and (traced) for
counts that must repeat exactly. Lines before the last describe the run;
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed; an exception inside a pass ends the run with a
traceback, exit code 1 and no result line.

Time metrics, per-layer ones included, are calibrated for the host's
drifting speed (speed.py); the report gives the raw seconds beside them.
"""

import time

T0_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from speed import SpeedSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("figures-cold", "figures-warm", "solo-points", "inject")

#: Pinned so a stray variable cannot change the program being measured.
PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_SIM_BACKEND": "fast",
    "REPRO_CACHE_DIR": "off",  # workloads that use a disk cache pass their own
}
UNSET_ENV = ("REPRO_BENCH_SUBSET",)

SETUP_SAMPLES = 3  # this process plus two fresh-interpreter probes
MIN_TRACED_PASSES = 2
TIME_UNITS = ("ms", "us", "ns")
PAPER_TURNPIKE_NORM = 1.00  # Fig 19, WCDL 10

SAMPLER = SpeedSampler()


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_head": git_head(),
        "env": {k: os.environ.get(k, "unset") for k in (*PINNED_ENV, *UNSET_ENV)},
    }


def git_head() -> str:
    """HEAD read from the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the benchmark's own child processes.
    parser.add_argument("--role", choices=("probe", "fill"), help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Calibrated set-up time of a fresh interpreter (imports + input
    generation)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--role", "probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(workload, seconds: float, minimum: int, tracer=None) -> list:
    """Passes until ``seconds`` have gone and at least ``minimum`` ran,
    each with its spans (empty when untraced)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        if tracer is None:
            passes.append((workload.run_pass(), []))
            continue
        with tracer.span("pass"):
            result = workload.run_pass()
        passes.append((result, tracer.take()))
    return passes


def check_repeats(workload_name: str, seed: int, per_pass: list[dict]) -> list[str]:
    """Counts that must repeat exactly: across this run's passes and
    against the last traced run of the same seed in this checkout."""
    from layers import EXACT

    exact = [{k: m[k] for k in EXACT} for m in per_pass]
    problems = [f"pass {i + 1}: {k} {e[k]} != {exact[0][k]}"
                for i, e in enumerate(exact[1:], 1) for k in EXACT
                if e[k] != exact[0][k]]
    saved = WORK / f"counts-{workload_name}-seed{seed}.json"
    if saved.is_file():
        before = json.loads(saved.read_text())
        problems += [f"earlier run: {k} {exact[0][k]} != {before[k]}"
                     for k in EXACT if before.get(k) != exact[0][k]]
    else:
        saved.write_text(json.dumps(exact[0], indent=1, sort_keys=True))
    return problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    import workloads  # imports the program

    if not Path(workloads.campaign.__file__).resolve().is_relative_to(SRC):
        print("perfbench: imported repro from outside this checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work_dir = args.work_dir or WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work_dir, workloads.load_reference())
    workload.setup()
    ready = SAMPLER.calibrate(T0_NS, time.perf_counter_ns())
    if args.role == "probe":
        print(json.dumps({"setup_s": ready[0]}))
        return 0
    if args.role == "fill":
        report = workload.fill_here()
        fill_s, _ = SAMPLER.calibrate(*report.pop("window"))
        print(json.dumps({"fill_s": fill_s, **report}))
        return 0

    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload, ready[0])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args: argparse.Namespace, workload, ready_s: float) -> int:
    import workloads
    from layers import FOLD, METRICS, TARGETS, layer_metrics, layer_shares
    from tracing import Tracer, percentile, tail_percentile

    setup_samples = [ready_s] + [probe_setup(args)
                                 for _ in range(SETUP_SAMPLES - 1)]
    setup_s = median(setup_samples)
    fill_s = 0.0
    if isinstance(workload, workloads.FiguresWarm):
        fill_s = workload.fill()
        setup_s += fill_s

    stamp = host_stamp()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  input: {workload.describe()}")
    print(f"  host: {json.dumps(stamp, sort_keys=True)}")

    if args.trace:
        untraced = timed_passes(workload, 0, 2)
        tracer = Tracer(fold=FOLD)
        tracer.install(TARGETS)
        try:
            traced = timed_passes(workload, args.seconds, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.restore()
        passes = untraced + traced
    else:
        passes = timed_passes(workload, args.seconds, 1)
    SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibrated = [SAMPLER.calibrate(*p.window)[0] for p, _ in passes]
    print(f"  passes: {len(passes)}; calibrated s (raw s): "
          + ", ".join(f"{c:.3f} ({p.wall_s:.3f})"
                      for c, (p, _) in zip(calibrated, passes)))

    attempted = sum(p.ops for p, _ in passes)
    failed = sum(p.failed for p, _ in passes)
    checked, oracle_failed = workload.oracle()
    attempted += checked
    failed += oracle_failed
    print(f"  checks: {attempted - checked} {workload.op_label} against "
          f"reference.json, {checked} oracle spot checks; {failed} failed")

    last = passes[-1][0]
    if args.trace:
        # Layer times are scaled by their pass's calibration, like wall_s.
        per_pass = []
        for (p, spans), cal in zip(traced, calibrated[len(untraced):]):
            scale = cal / p.wall_s
            per_pass.append({
                name: value * scale if METRICS[name] in TIME_UNITS else value
                for name, value in layer_metrics(spans, p.disk_mb).items()
            })
        problems = check_repeats(args.workload, args.seed, per_pass)
        attempted += 1
        failed += bool(problems)
        for problem in problems:
            print(f"  count did not repeat: {problem}")
        metrics = {
            name: {"value": median([m[name] for m in per_pass]), "unit": unit}
            for name, unit in METRICS.items()
        }
        traced_s = median(calibrated[len(untraced):])
        print(f"  tracing overhead: traced pass {traced_s:.4f} s - untraced "
              f"pass {calibrated[1]:.4f} s = {traced_s - calibrated[1]:+.4f} s")
        print("  self-time shares of the first traced pass:")
        for name, share in layer_shares(traced[0][1]).items():
            if share >= 0.001:
                print(f"    {name:24s} {share:7.1%}")
        with open(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for i, (_, spans) in enumerate(traced):
                for span in spans:
                    fh.write(json.dumps({"pass": i, **span.to_dict()}) + "\n")
    else:
        wall_s = median(calibrated)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": last.ops / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("  calibrated setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in setup_samples)
              + (f" + fill pass {fill_s:.3f}" if fill_s else ""))
        rate = "inj_per_s" if args.workload == "inject" else "points_per_s"
        print(f"  ops_per_s is {rate} here ({last.ops} {workload.op_label} per pass)")
        if last.sim_instrs:
            print(f"  sim_minstr_per_s {last.sim_instrs / 1e6 / calibrated[-1]:.4f} "
                  f"M simulated instr per calibrated s ({last.sim_instrs} instructions)")
        lat = [x * 1e3 for p, _ in passes for x in p.latencies_s]
        tail = tail_percentile(len(lat))
        if tail:
            print(f"  point_ms_p50 {percentile(lat, 50):.4f} ms, "
                  f"point_ms_p{tail} {percentile(lat, tail):.4f} ms "
                  f"(raw) over {len(lat)} simulate() calls")
        for name, value in workload.extras().items():
            print(f"  {name} {value:.6f} (simulated; paper {PAPER_TURNPIKE_NORM:.2f}. "
                  "The model substitutes synthetic kernels and an analytical "
                  "core for gem5/SPEC and is not validated against it)")
    print(f"  error_rate {failed / attempted:.6f} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    SAMPLER.start()
    try:
        code = main(sys.argv[1:])
    finally:
        SAMPLER.stop()
    sys.exit(code)
