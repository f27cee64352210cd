"""Integration tests: a real ``repro serve`` subprocess driven through
the client CLI and :class:`ServiceClient`.

The acceptance-critical properties live here:

* service results are byte-for-byte identical to the direct CLI, for
  all six job kinds (stdout, and for ``inject`` the exported aggregate
  JSON);
* duplicate submissions execute at most once;
* SIGTERM drains the queue and exits 0;
* kill -9 mid-campaign followed by a restart re-adopts the job and
  completes it with a byte-identical aggregate.

The server and the direct CLI share one artifact-cache directory per
test module: the cache is observationally invisible (a documented
invariant tested elsewhere), and sharing it keeps this file fast.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parent.parent / "src")
RUN_UID = "CPU2006.gcc"
INJECT_ARGS = [
    "SPLASH3.radix", "--count", "12", "--seed", "7",
    "--targets", "register", "--variants", "turnpike,unsafe",
    "--shard-size", "1",
]
INJECT_SPEC = {
    "uid": "SPLASH3.radix", "count": 12, "seed": 7,
    "targets": "register", "variants": "turnpike,unsafe", "shard_size": 1,
}


def _env(cache_dir: Path) -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_SERVICE", None)
    return env


def _cli(env, *argv, check=True, timeout=240):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


class ServerProc:
    """A ``repro serve`` child in its own process group."""

    def __init__(self, journal: Path, env: dict, workers: int = 2):
        self.journal = journal
        # a kill -9'd predecessor leaves a stale endpoint file behind;
        # drop it so the readiness wait below sees only the new server's
        (journal / "endpoint").unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--journal", str(journal), "--port", "0",
                "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,  # killpg must not reach pytest
        )
        deadline = time.monotonic() + 30
        endpoint = journal / "endpoint"
        while not endpoint.exists():
            if self.proc.poll() is not None:
                raise AssertionError(
                    "server died: " + self.proc.stderr.read().decode()
                )
            if time.monotonic() > deadline:
                raise AssertionError("server never wrote its endpoint file")
            time.sleep(0.05)

    def client(self, name="itest") -> ServiceClient:
        return ServiceClient(journal_dir=str(self.journal), client_name=name)

    def sigterm(self, timeout=120):
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, err.decode()

    def kill9(self):
        # killpg: ProcessPoolExecutor children must die too, or they
        # keep running the campaign behind the "crashed" server's back
        os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
        self.proc.wait(timeout=30)

    def reap(self):
        if self.proc.poll() is None:
            with contextlib_suppress():
                os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
            self.proc.wait(timeout=30)


class contextlib_suppress:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return True


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@pytest.fixture
def server(tmp_path, cache_dir):
    srv = ServerProc(tmp_path / "journal", _env(cache_dir))
    yield srv
    srv.reap()


def test_run_and_lint_parity_via_submit_cli(server, cache_dir):
    env = _env(cache_dir)
    journal = ["--journal", str(server.journal)]
    for service_argv, direct_argv in (
        (["submit", "run", *journal, RUN_UID, "--wait"], ["run", RUN_UID]),
        (["submit", "lint", *journal, RUN_UID, "--wait"], ["lint", RUN_UID]),
    ):
        via_service = _cli(env, *service_argv, timeout=300)
        direct = _cli(env, *direct_argv, timeout=300)
        assert via_service.stdout == direct.stdout  # byte-for-byte
        assert via_service.stdout  # non-vacuous


def test_vuln_ecc_sweep_parity_via_submit_cli(server, cache_dir):
    """The other three job kinds, each submitted in the direct spelling.

    ``sweep`` ends with a wall-clock line ("swept N figure(s) in 0.3s");
    only that number is masked, every other byte must match.
    """
    env = _env(cache_dir)
    journal = ["--journal", str(server.journal)]
    elapsed = re.compile(rb"(?m)^(swept \d+ figure\(s\) in )\d+\.\ds")
    for argv in (
        ["vuln", "CPU2006.mcf"],
        ["ecc", "--codes", "secded", "--structure", "sb", "--trials", "200"],
        ["sweep", "table1", "fig18"],
    ):
        via_service = _cli(env, "submit", argv[0], *journal, *argv[1:], "--wait")
        direct = _cli(env, *argv)
        assert via_service.stdout  # non-vacuous
        assert elapsed.sub(rb"\1<t>", via_service.stdout) == (
            elapsed.sub(rb"\1<t>", direct.stdout)
        )


def test_inject_parity_and_dedup(server, tmp_path, cache_dir):
    env = _env(cache_dir)
    client = server.client()
    job, deduped = client.submit("inject", INJECT_SPEC)
    assert not deduped

    # concurrent identical submission from another client: same job
    other = server.client(name="other")
    job2, deduped2 = other.submit("inject", INJECT_SPEC)
    assert deduped2 and job2["id"] == job["id"]

    done = client.wait(job["id"], timeout=240)
    assert done["state"] == "done", done
    result = client.result(job["id"])["result"]
    assert result["exit_code"] == 0

    direct_export = tmp_path / "direct.json"
    direct = _cli(
        env, "inject", *INJECT_ARGS, "--export", str(direct_export),
        timeout=300,
    )
    assert result["stdout"].encode() == direct.stdout

    service_export = server.journal / "exports" / f"{done['key']}.json"
    assert service_export.read_bytes() == direct_export.read_bytes()

    # the work ran exactly once for two submissions
    metrics = client.metrics()
    assert metrics["dedup"]["hits"] >= 1
    assert metrics["jobs"]["completed"] == 1

    # resubmitting after completion is a cached hit, still the same job
    job3, deduped3 = client.submit("inject", INJECT_SPEC)
    assert deduped3 and job3["id"] == job["id"] and job3["state"] == "done"

    # `repro result` replays the stored stdout byte-for-byte
    res = _cli(
        env, "result", "--journal", str(server.journal), job["id"]
    )
    assert res.stdout == direct.stdout


def test_jobs_listing_and_version(server, cache_dir):
    env = _env(cache_dir)
    client = server.client()
    job, _ = client.submit("run", {"uid": RUN_UID})
    client.wait(job["id"], timeout=240)
    listing = _cli(
        env, "jobs", "--journal", str(server.journal), "--json"
    )
    jobs = json.loads(listing.stdout)["jobs"]
    assert any(j["id"] == job["id"] and j["state"] == "done" for j in jobs)

    version = _cli(env, "--version")
    from repro import __version__

    assert version.stdout.decode().strip().endswith(__version__)


def test_sigterm_drains_queue_and_exits_zero(server, cache_dir):
    client = server.client()
    ids = [
        client.submit("run", {"uid": uid})[0]["id"]
        for uid in (RUN_UID, "SPLASH3.radix", "CPU2006.mcf")
    ]
    returncode, stderr = server.sigterm()
    assert returncode == 0, stderr
    assert "drained" in stderr
    # every submitted job reached a terminal state in the journal
    from repro.service.journal import Journal

    replayed = Journal(server.journal).replay()
    for job_id in ids:
        assert replayed[job_id].state.value == "done", replayed[job_id]


def test_kill9_mid_campaign_readopts_and_byte_identical(
    tmp_path, tmp_path_factory
):
    # Cold cache on purpose: the campaign must be slow enough to kill
    # mid-flight, and a golden-run build gives us that window.
    cache = tmp_path_factory.mktemp("cold-cache")
    env = _env(cache)
    journal = tmp_path / "journal"
    srv = ServerProc(journal, env, workers=1)
    try:
        client = srv.client()
        job, _ = client.submit("inject", INJECT_SPEC)
        key = job["key"]
        manifest = journal / "manifests" / f"{key}.json"

        # wait until at least one shard is checkpointed, then pull the plug
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            try:
                shards = json.loads(manifest.read_text()).get("shards", {})
            except (OSError, ValueError):
                shards = {}
            if shards:
                break
            if client.job(job["id"])["state"] == "done":
                break  # campaign outran us; restart still must serve it
            time.sleep(0.02)
        else:
            raise AssertionError("no shard ever reached the manifest")
        srv.kill9()
    except BaseException:
        srv.reap()
        raise

    # restart on the same journal: the interrupted job is re-adopted,
    # resumed from the manifest, and completed
    srv2 = ServerProc(journal, env, workers=1)
    try:
        client = srv2.client()
        assert client.job(job["id"])["kind"] == "inject"
        done = client.wait(job["id"], timeout=240)
        assert done["state"] == "done", done
        result = client.result(job["id"])["result"]

        direct_export = tmp_path / "direct.json"
        direct = _cli(
            env, "inject", *INJECT_ARGS, "--export", str(direct_export),
            timeout=300,
        )
        assert result["stdout"].encode() == direct.stdout
        service_export = journal / "exports" / f"{done['key']}.json"
        assert service_export.read_bytes() == direct_export.read_bytes()
    finally:
        srv2.reap()
