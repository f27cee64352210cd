"""The ``repro lint`` driver: verify compiled benchmarks from the CLI.

Compiles each requested benchmark under the chosen scheme, runs the
verifier rule suite (differential WAR cross-checking included by
default), and renders the findings as text, JSON, or SARIF.

Exit codes follow lint conventions: 0 when no error-severity finding
exists (warnings allowed unless ``--strict``), 1 when findings fail the
run, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from repro.verify.diagnostics import VerificationReport
from repro.verify.manager import VerifierContext, default_manager
from repro.verify.sarif import render_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def lint_benchmark(
    uid: str,
    scheme: str = "turnpike",
    sb_size: int = 4,
    differential: bool = True,
    max_steps: int = 2_000_000,
    upset_model: str = "single",
) -> VerificationReport:
    """Compile one benchmark and verify it."""
    from repro.compiler.config import turnpike_config, turnstile_config
    from repro.compiler.pipeline import compile_program
    from repro.workloads.suites import load_workload

    workload = load_workload(uid)
    if scheme == "turnstile":
        config = turnstile_config(sb_size=sb_size)
    else:
        config = turnpike_config(sb_size=sb_size)
    compiled = compile_program(workload.program, config)
    ctx = VerifierContext(
        compiled,
        differential=differential,
        memory_factory=workload.fresh_memory,
        max_steps=max_steps,
    )
    report = default_manager(upset_model=upset_model).run(ctx)
    # Report under the benchmark uid rather than the internal program
    # name, so CLI findings are attributable; diagnostic locations keep
    # the program name.
    report.program = uid
    return report


def _lint_job(
    job: tuple[str, str, int, bool, str]
) -> tuple[str, VerificationReport | None, str | None]:
    """Multiprocessing entry point: lint one benchmark in a worker.

    Must stay module-level (picklable) and take a single tuple so it can
    be mapped over a process pool; reports are plain dataclasses and
    travel back to the parent intact. A verifier crash is contained
    here — returned as ``(uid, None, error)`` instead of propagating —
    so one broken program cannot take down a whole ``--all`` run.
    """
    uid, scheme, sb_size, differential, upset_model = job
    try:
        report = lint_benchmark(
            uid,
            scheme=scheme,
            sb_size=sb_size,
            differential=differential,
            upset_model=upset_model,
        )
    except Exception as exc:  # containment is the point: report, don't die
        return uid, None, f"{type(exc).__name__}: {exc}"
    return uid, report, None


def _lint_all(
    uids: list[str],
    scheme: str,
    sb_size: int,
    differential: bool,
    workers: int,
    upset_model: str = "single",
) -> list[tuple[str, VerificationReport | None, str | None]]:
    """Lint many benchmarks, fanning out across processes when asked.

    Results come back in ``uids`` order regardless of worker count, so
    text/JSON/SARIF output is deterministic either way.
    """
    jobs = [
        (uid, scheme, sb_size, differential, upset_model) for uid in uids
    ]
    if workers <= 1 or len(jobs) <= 1:
        return [_lint_job(job) for job in jobs]
    import multiprocessing as mp

    with mp.get_context().Pool(min(workers, len(jobs))) as pool:
        return pool.map(_lint_job, jobs, chunksize=1)


def run_lint(args: argparse.Namespace, out: TextIO | None = None) -> int:
    """Handler for ``repro lint`` (argparse namespace in, exit code out)."""
    from repro.workloads.suites import all_profiles

    # Resolve the stream at call time so output redirection (pytest
    # capture, shell pipes set up after import) is respected.
    if out is None:
        out = sys.stdout

    if args.all and args.uid:
        print("lint: give either a benchmark uid or --all, not both",
              file=sys.stderr)
        return EXIT_USAGE
    if not args.all and not args.uid:
        print("lint: need a benchmark uid or --all", file=sys.stderr)
        return EXIT_USAGE
    uids = (
        [p.uid for p in all_profiles()] if args.all else [args.uid]
    )
    known = {p.uid for p in all_profiles()}
    unknown = [u for u in uids if u not in known]
    if unknown:
        print(f"lint: unknown benchmark(s): {', '.join(unknown)}",
              file=sys.stderr)
        return EXIT_USAGE

    from repro.harness.runner import resolve_workers

    upset_model = getattr(args, "upset_model", None) or "single"
    try:
        from repro.ecc.faultmodel import pattern

        pattern(upset_model)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    workers = resolve_workers(getattr(args, "workers", None))
    results = _lint_all(
        uids,
        scheme=args.scheme,
        sb_size=args.sb,
        differential=args.differential,
        workers=workers,
        upset_model=upset_model,
    )
    reports = [report for _, report, _ in results if report is not None]
    crashed = [(uid, error) for uid, report, error in results if report is None]
    for uid, error in crashed:
        print(f"lint: {uid}: verifier crashed: {error}", file=sys.stderr)
    if args.format == "text":
        for report in reports:
            print(report.render_text(max_per_rule=args.max_per_rule),
                  file=out)

    rendered: str | None = None
    if args.format == "json":
        rendered = json.dumps(
            {
                "reports": [r.to_dict() for r in reports],
                "ok": all(r.ok for r in reports),
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "sarif":
        rendered = render_sarif(reports)
    if rendered is not None:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(rendered + "\n")
        else:
            print(rendered, file=out)
    elif args.output:
        with open(args.output, "w") as fh:
            for report in reports:
                fh.write(report.render_text(args.max_per_rule) + "\n")

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.format == "text":
        verdict = (
            "CRASH" if crashed
            else "FAIL" if errors or (args.strict and warnings)
            else "OK"
        )
        crash_note = ""
        if crashed:
            crash_note = (
                f", {len(crashed)} crashed "
                f"({', '.join(uid for uid, _ in crashed)})"
            )
        print(
            f"lint: {len(reports)} program(s), {errors} error(s), "
            f"{warnings} warning(s){crash_note} -> {verdict}",
            file=out,
        )
    if crashed:
        return EXIT_USAGE
    if errors:
        return EXIT_FINDINGS
    if args.strict and warnings:
        return EXIT_FINDINGS
    return EXIT_CLEAN
