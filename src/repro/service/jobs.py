"""Typed job specs, lifecycle states, and content-addressed identity.

A job is one CLI-equivalent unit of work (``run`` / ``inject`` /
``lint`` / ``vuln`` / ``sweep`` / ``ecc``), declared in
:mod:`repro.commands`. Its :class:`JobSpec` is normalised at
construction — unknown parameters rejected, defaults filled in, values
validated by the command table — so that two
submissions meaning the same thing always produce the same canonical
parameter dict, the same canonical argv, and therefore the same dedup
key no matter how the client spelled them.

Identity follows the artifact cache's discipline
(:mod:`repro.harness.artifacts`): the dedup key digests the whole
``repro`` source tree *plus* the canonical spec, so results cached by a
previous server generation can never be served after the simulator's
semantics change.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.commands import canonical_argv, normalise
from repro.harness.artifacts import code_digest

@dataclass(frozen=True)
class JobSpec:
    """A normalised, validated job description."""

    kind: str
    params: tuple[tuple[str, Any], ...]

    @classmethod
    def create(cls, kind: str, params: Mapping[str, Any] | None = None) -> "JobSpec":
        # Canonical order: the declaration order, always fully
        # materialised — submissions that differ only in spelling or in
        # which defaults they omitted become identical specs.
        return cls(kind, tuple(normalise(kind, params or {}).items()))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_argv(self) -> list[str]:
        """The canonical ``repro`` argv this job executes.

        Workers run jobs through the real CLI entry point, so service
        results are byte-identical to direct invocations by
        construction. Parallelism flags are pinned to one worker: the
        service's own pool is the unit of concurrency.
        """
        return canonical_argv(self.kind, self.as_dict())


def job_key(spec: JobSpec) -> str:
    """Content-addressed dedup key: source digest + canonical spec.

    Shares the artifact cache's invalidation property — any edit under
    ``src/repro`` changes :func:`code_digest` and therefore every key,
    so stale results are unreachable rather than merely unlikely.
    """
    text = "|".join(
        [
            code_digest(),
            spec.kind,
            json.dumps(spec.as_dict(), sort_keys=True),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:40]


class JobState(str, enum.Enum):
    """Job lifecycle: queued -> running -> done/failed/cancelled/timeout."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMEOUT,
        )


@dataclass
class JobRecord:
    """One job's mutable lifecycle, as tracked by the registry/journal."""

    id: str
    spec: JobSpec
    key: str
    client: str
    priority: int = 10
    timeout: float | None = None
    state: JobState = JobState.QUEUED
    attempts: int = 0
    clients: list[str] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    exit_code: int | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.clients:
            self.clients = [self.client]

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "spec": self.spec.as_dict(),
            "key": self.key,
            "client": self.client,
            "clients": list(self.clients),
            "priority": self.priority,
            "timeout": self.timeout,
            "state": self.state.value,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "exit_code": self.exit_code,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        spec = JobSpec.create(data["kind"], data["spec"])
        rec = cls(
            id=data["id"],
            spec=spec,
            key=data["key"],
            client=data["client"],
            priority=data.get("priority", 10),
            timeout=data.get("timeout"),
            state=JobState(data.get("state", "queued")),
            attempts=data.get("attempts", 0),
            clients=list(data.get("clients") or [data["client"]]),
            submitted_at=data.get("submitted_at", 0.0),
        )
        rec.started_at = data.get("started_at")
        rec.finished_at = data.get("finished_at")
        rec.exit_code = data.get("exit_code")
        rec.error = data.get("error")
        return rec
