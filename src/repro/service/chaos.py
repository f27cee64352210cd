"""Chaos harness: kill and partition the fabric, assert byte-parity.

``python -m repro.service.chaos`` runs one end-to-end experiment:

1. **Reference run** — the campaign executes through the plain local
   CLI (``repro inject``), capturing stdout and the aggregate JSON
   export. This also warms the shared artifact cache, so the
   distributed phase measures fabric behaviour rather than golden-run
   compilation.
2. **Fabric run** — a coordinator plus N worker nodes start as real
   subprocesses (each in its own process group, exactly like
   production); the same campaign is submitted to the coordinator
   while a seeded chaos loop SIGKILLs workers (restarting them on the
   same journal, exercising node re-adoption), SIGSTOPs the
   coordinator to simulate network partitions, and optionally SIGKILLs
   and restarts the coordinator itself mid-campaign.
3. **Verdict** — the distributed stdout and aggregate export must be
   **byte-identical** to the reference. Anything else is a failure, as
   is exceeding the wall-clock guard.

The assertion this buys: chaos moves work between processes but can
never change output, because every injection is a pure function of
``(seed, index)`` and the coordinator's local finalize recomputes
whatever the fabric failed to deliver.

Exit codes: 0 parity, 1 mismatch/failure, 2 timeout or setup error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec


def _say(message: str) -> None:
    print(f"[chaos] {message}", file=sys.stderr, flush=True)


class Proc:
    """A fabric subprocess in its own process group (killpg-able)."""

    def __init__(self, tag: str, argv: list[str], env: dict[str, str]):
        self.tag = tag
        self.argv = argv
        self.env = env
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill9(self) -> None:
        try:
            os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass

    def pause(self) -> None:
        try:
            os.killpg(os.getpgid(self.proc.pid), signal.SIGSTOP)
        except (OSError, ProcessLookupError):
            pass

    def resume(self) -> None:
        try:
            os.killpg(os.getpgid(self.proc.pid), signal.SIGCONT)
        except (OSError, ProcessLookupError):
            pass


def _wait_endpoint(journal: Path, proc: Proc, deadline_s: float = 30) -> None:
    deadline = time.monotonic() + deadline_s
    endpoint = journal / "endpoint"
    while not endpoint.exists():
        if not proc.alive():
            raise RuntimeError(f"{proc.tag} died during startup")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{proc.tag} never wrote {endpoint}")
        time.sleep(0.05)


def _start_coordinator(root: Path, env: dict, args) -> Proc:
    journal = root / "coordinator"
    (journal / "endpoint").unlink(missing_ok=True)
    proc = Proc(
        "coordinator",
        [
            sys.executable, "-m", "repro", "serve",
            "--role", "coordinator",
            "--journal", str(journal),
            "--port", "0",
            "--workers", "1",
            "--node-timeout", str(args.node_timeout),
            "--steal-after", str(args.steal_after),
            "--lease-timeout", str(args.lease_timeout),
        ],
        env,
    )
    _wait_endpoint(journal, proc)
    return proc


def _start_worker(root: Path, env: dict, args, index: int) -> Proc:
    journal = root / f"worker-{index}"
    (journal / "endpoint").unlink(missing_ok=True)
    proc = Proc(
        f"worker-{index}",
        [
            sys.executable, "-m", "repro", "serve",
            "--role", "worker",
            "--journal", str(journal),
            "--port", "0",
            "--workers", "1",
            "--coordinator-journal", str(root / "coordinator"),
            "--node-id", f"w{index}",
            "--heartbeat-interval", "0.4",
        ],
        env,
    )
    _wait_endpoint(journal, proc)
    return proc


def _poll_job(root: Path, job_id: str) -> dict | None:
    """One tolerant poll of the coordinator; None while unreachable."""
    try:
        client = ServiceClient(journal_dir=str(root / "coordinator"))
        return client.job(job_id)
    except (ValueError, ConnectionError, OSError):
        return None  # coordinator down/partitioned; caller keeps waiting


def run_chaos(args: argparse.Namespace) -> int:
    root = Path(args.workdir or tempfile.mkdtemp(prefix="repro-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    env = os.environ.copy()
    env.setdefault("REPRO_CACHE_DIR", str(root / "cache"))
    env.pop("REPRO_SERVICE", None)
    rng = random.Random(args.seed)
    deadline = time.monotonic() + args.timeout

    spec = {
        "uid": args.uid,
        "count": args.count,
        "seed": args.inject_seed,
        "targets": args.targets,
        "variants": args.variants,
        "shard_size": args.shard_size,
    }
    inject_argv = JobSpec.create("inject", spec).to_argv()

    # -- phase 1: local reference -----------------------------------------
    _say(f"reference run: repro {' '.join(inject_argv)}")
    ref_export = root / "reference.json"
    started = time.monotonic()
    reference = subprocess.run(
        [
            sys.executable, "-m", "repro",
            *inject_argv, "--export", str(ref_export),
        ],
        capture_output=True,
        env=env,
        timeout=max(60.0, args.timeout),
    )
    if reference.returncode != 0:
        _say(f"reference run failed: {reference.stderr.decode()}")
        return 2
    _say(f"reference done in {time.monotonic() - started:.1f}s")

    # -- phase 2: fabric under chaos ---------------------------------------
    procs: list[Proc] = []
    workers: dict[int, Proc] = {}
    coordinator: Proc | None = None
    try:
        coordinator = _start_coordinator(root, env, args)
        procs.append(coordinator)
        for i in range(args.nodes):
            workers[i] = _start_worker(root, env, args, i)
            procs.append(workers[i])
        _say(f"fabric up: coordinator + {args.nodes} worker(s)")

        # let heartbeats register before submitting
        time.sleep(max(1.0, args.node_timeout / 3))

        client = ServiceClient(journal_dir=str(root / "coordinator"))
        job, _ = client.submit("inject", spec)
        job_id, job_key = job["id"], job["key"]
        _say(f"submitted campaign {job_id} (key {job_key[:12]}…)")

        kills_done = 0
        coordinator_restarts = 0
        partitions = 0
        next_chaos = time.monotonic() + args.chaos_interval
        job_state = "queued"
        while True:
            if time.monotonic() > deadline:
                _say("TIMEOUT: campaign did not finish inside the guard")
                return 2
            polled = _poll_job(root, job_id)
            if polled is not None:
                job_state = polled["state"]
                if job_state in ("done", "failed", "cancelled", "timeout"):
                    break
            if time.monotonic() >= next_chaos:
                next_chaos = time.monotonic() + args.chaos_interval
                choice = rng.random()
                if kills_done < args.kills and workers:
                    victim = rng.choice(sorted(workers))
                    _say(f"SIGKILL worker w{victim} (kill {kills_done + 1}"
                         f"/{args.kills})")
                    workers[victim].kill9()
                    kills_done += 1
                    # restart on the SAME journal: the node re-adopts
                    # its interrupted leases exactly like the kill-9
                    # recovery path of the single-node server
                    workers[victim] = _start_worker(root, env, args, victim)
                    procs.append(workers[victim])
                elif (
                    args.restart_coordinator
                    and coordinator_restarts < 1
                    and coordinator is not None
                ):
                    _say("SIGKILL coordinator; restarting on same journal")
                    coordinator.kill9()
                    coordinator = _start_coordinator(root, env, args)
                    procs.append(coordinator)
                    coordinator_restarts += 1
                elif choice < 0.5 and coordinator is not None:
                    pause = 0.3 + rng.random() * 0.7
                    _say(f"partition: SIGSTOP coordinator for {pause:.1f}s")
                    coordinator.pause()
                    time.sleep(pause)
                    coordinator.resume()
                    partitions += 1
            time.sleep(0.2)

        if job_state != "done":
            _say(f"FAIL: campaign ended in state {job_state!r}")
            return 1
        _say(
            f"campaign done after {kills_done} worker kill(s), "
            f"{coordinator_restarts} coordinator restart(s), "
            f"{partitions} partition(s)"
        )

        # -- phase 3: parity verdict ---------------------------------------
        result = None
        for _ in range(50):  # the coordinator may be settling post-chaos
            try:
                client = ServiceClient(journal_dir=str(root / "coordinator"))
                result = client.result(job_id)["result"]
                break
            except (ValueError, ConnectionError, OSError):
                time.sleep(0.2)
        if result is None:
            _say("FAIL: could not fetch the campaign result")
            return 1

        failures = []
        if result["stdout"].encode() != reference.stdout:
            failures.append("stdout differs from the local reference run")
        fabric_export = (
            root / "coordinator" / "exports" / f"{job_key}.json"
        )
        try:
            if fabric_export.read_bytes() != ref_export.read_bytes():
                failures.append("aggregate export differs byte-wise")
        except OSError as exc:
            failures.append(f"aggregate export unreadable: {exc}")
        try:
            metrics = ServiceClient(
                journal_dir=str(root / "coordinator")
            ).metrics()
            fabric = metrics.get("fabric") or {}
            _say(
                "fabric counters: "
                + ", ".join(
                    f"{name}={fabric.get(name, 0)}"
                    for name in (
                        "live_nodes", "node_deaths", "lease_redispatch",
                        "lease_steals", "local_fallback",
                        "transport_retries",
                    )
                )
            )
        except (ValueError, ConnectionError, OSError):
            pass
        if failures:
            for failure in failures:
                _say(f"FAIL: {failure}")
            return 1
        _say("PASS: distributed aggregate is byte-identical to local run")
        return 0
    finally:
        for proc in procs:
            proc.resume()  # a SIGSTOPped group ignores SIGKILL cleanup
            proc.kill9()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="kill/partition the campaign fabric; assert byte-parity",
    )
    parser.add_argument("--uid", default="SPLASH3.radix")
    parser.add_argument("--count", type=int, default=24)
    parser.add_argument(
        "--inject-seed", type=int, default=7, help="campaign seed"
    )
    parser.add_argument("--targets", default="register")
    parser.add_argument("--variants", default="turnpike,unsafe")
    parser.add_argument("--shard-size", type=int, default=2)
    parser.add_argument(
        "--nodes", type=int, default=2, help="worker nodes to start"
    )
    parser.add_argument(
        "--kills", type=int, default=2, help="worker SIGKILLs to inflict"
    )
    parser.add_argument(
        "--restart-coordinator",
        action="store_true",
        help="also SIGKILL + restart the coordinator once mid-campaign",
    )
    parser.add_argument(
        "--seed", type=int, default=1234, help="chaos-schedule seed"
    )
    parser.add_argument(
        "--chaos-interval",
        type=float,
        default=2.0,
        help="seconds between chaos actions",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="wall-clock guard for the distributed phase",
    )
    parser.add_argument("--node-timeout", type=float, default=3.0)
    parser.add_argument("--steal-after", type=float, default=20.0)
    parser.add_argument("--lease-timeout", type=float, default=120.0)
    parser.add_argument(
        "--workdir",
        default=None,
        help="working directory (default: a fresh temp dir)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_chaos(args)
    except RuntimeError as exc:
        _say(f"setup failure: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
