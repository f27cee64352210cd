"""The six job-kind commands, each parameter declared once.

``run``, ``inject``, ``lint``, ``vuln``, ``sweep`` and ``ecc`` are both
CLI commands and service jobs. :data:`COMMANDS` declares every parameter
of them exactly once: its spec key (which is also its argparse
``dest``), its flag spelling and argparse keywords, its default, its
validator and its service role. Everything else is derived from it:

* the direct subparsers of ``repro <kind>`` (:func:`add_parser`);
* the ``repro submit <kind>`` subparsers, which take the same flags
  minus pinned and CLI-only ones (:func:`add_parser` with
  ``submit=True``) and forward only the flags the user gave
  (:func:`spec_from_args`);
* :class:`repro.service.jobs.JobSpec` normalisation and its canonical
  argv (:func:`canonical_argv`);
* the post-parse validation of the direct CLI (:func:`validate_args`),
  so the CLI and the service reject the same values.

A new flag is one :class:`Param` entry.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

#: Service roles of a parameter.
EXPOSED = "exposed"  # a spec key: submit forwards it, the worker argv carries it
PINNED = "pinned"  # fixed in the worker argv (the pool is the unit of concurrency)
CLI_ONLY = "cli"  # direct command only (local files, adaptive modes)

Check = Callable[[Any], Any]

# -- validators ---------------------------------------------------------------
#
# Each returns the canonical value or raises ValueError. ``None`` never
# reaches them for an optional parameter (one whose default is None).


def _choice(*choices: str) -> Check:
    def check(value: Any) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value

    return check


def _int(minimum: int | None = None) -> Check:
    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"expected >= {minimum}, got {value}")
        return value

    return check


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _uid(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a benchmark uid, got {value!r}")
    from repro.workloads.suites import all_profiles

    known = {p.uid for p in all_profiles()}
    if value not in known:
        raise ValueError(f"unknown benchmark uid {value!r}")
    return value


def _csv(value: Any) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected a comma-separated list, got {value!r}")
    return ",".join(part.strip() for part in value.split(",") if part.strip())


def canonical_figures(value: Any) -> str | None:
    """Figure ids (a list or comma-separated), canonicalised to suite order."""
    from repro.harness.experiments import FIGURE_ALIASES, FIGURE_SUITE

    if isinstance(value, list):
        if not value:
            return None
        value = ",".join(value)
    names = {
        FIGURE_ALIASES.get(name.lower(), name.lower())
        for name in _csv(value).split(",")
    }
    unknown = sorted(names - set(FIGURE_SUITE))
    if unknown:
        raise ValueError(
            f"unknown figure id(s): {', '.join(unknown)} "
            f"(expected from {', '.join(FIGURE_SUITE)})"
        )
    return ",".join(name for name in FIGURE_SUITE if name in names)


def _uids(value: Any) -> str:
    """Comma-separated benchmark uids, canonicalised to sorted order."""
    names = sorted(set(_csv(value).split(",")))
    for name in names:
        _uid(name)
    return ",".join(names)


def _ecc_code(value: Any) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected an ECC code name, got {value!r}")
    from repro.ecc.codes import make_code

    make_code(value.strip(), 32)  # raises ValueError on unknown names
    return value.strip()


def _upset(value: Any) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected an upset pattern name, got {value!r}")
    from repro.ecc.faultmodel import pattern

    pattern(value.strip())  # raises ValueError on unknown names
    return value.strip()


def _ecc_codes(value: Any) -> str:
    """Comma-separated code names, validated and order-preserved."""
    names = _csv(value).split(",")
    for name in names:
        _ecc_code(name)
    return ",".join(dict.fromkeys(names))


def _structures(value: Any) -> str:
    from repro.ecc.layout import STRUCTURES

    names = _csv(value).split(",")
    unknown = sorted(set(names) - set(STRUCTURES))
    if unknown:
        raise ValueError(
            f"unknown structure(s): {', '.join(unknown)} "
            f"(expected from {', '.join(STRUCTURES)})"
        )
    return ",".join(dict.fromkeys(names))


def _patterns(value: Any) -> str:
    from repro.ecc.faultmodel import parse_patterns

    if not isinstance(value, str):
        raise ValueError(f"expected a pattern list, got {value!r}")
    return ",".join(p.name for p in parse_patterns(value))


# -- the declaration ----------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One parameter of a job-kind command."""

    key: str  # spec key and argparse dest
    flag: str | None  # None: a positional
    default: Any = None
    check: Check | None = None  # validator of exposed values
    role: str = EXPOSED
    required: bool = False  # the service demands a value
    pin: str | None = None  # the argv value of a pinned flag
    kwargs: Mapping[str, Any] = field(default_factory=dict)  # argparse keywords

    def validate(self, value: Any) -> Any:
        if value is None and self.default is None and not self.required:
            return None
        assert self.check is not None, self.key
        return self.check(value)

    def argv(self, value: Any) -> list[str]:
        if self.role == PINNED:
            return [str(self.flag), str(self.pin)]
        if self.role != EXPOSED or value is None:
            return []
        if self.flag is None:
            return str(value).split(",") if self.kwargs.get("nargs") == "*" else [value]
        if self.kwargs.get("action") in ("store_true", "store_false", "store_const"):
            return [self.flag] if value != self.default else []
        return [self.flag, str(value)]


def _param(
    spelling: str,
    default: Any = None,
    check: Check | None = None,
    *,
    key: str | None = None,
    role: str = EXPOSED,
    required: bool = False,
    pin: str | None = None,
    **kwargs: Any,
) -> Param:
    """Declare ``--flag`` or a positional; derives key and routine checks."""
    flag = spelling if spelling.startswith("-") else None
    if check is None and role == EXPOSED:
        if "choices" in kwargs:
            check = _choice(*kwargs["choices"])
        elif kwargs.get("action") in ("store_true", "store_false"):
            check = _bool
        elif kwargs.get("type") is int:
            check = _int()
    return Param(
        key or spelling.lstrip("-").replace("-", "_"),
        flag, default, check, role, required, pin, kwargs,
    )


def _cli(spelling: str, default: Any = None, **kwargs: Any) -> Param:
    return _param(spelling, default, role=CLI_ONLY, **kwargs)


@dataclass(frozen=True)
class Command:
    """A job-kind command: its parameters in canonical argv order."""

    name: str
    help: str
    params: tuple[Param, ...]
    #: Cross-parameter rule on the normalised spec (service side).
    check: Callable[[dict[str, Any]], None] | None = None

    @property
    def spec_params(self) -> tuple[Param, ...]:
        return tuple(p for p in self.params if p.role == EXPOSED)


def _lint_check(spec: dict[str, Any]) -> None:
    if spec["uid"] is None and not spec["all"]:
        raise ValueError("lint needs a benchmark uid or all=true")
    if spec["uid"] is not None and spec["all"]:
        raise ValueError("lint takes a uid or all=true, not both")


_TARGETS = "register,store_buffer,clq,coloring"
_VARIANTS = "turnstile,warfree,turnpike,unsafe"
_UPSETS = "single, adjacent-double, burst<k>, random<k>, column<k>"
_CODES = "parity, sec, secded, secdaec, bch"


def _workers(default: Any, help: str) -> Param:
    return _param("--workers", default, role=PINNED, pin="1", type=int, help=help)


_POOL_WORKERS = (
    "worker processes for {} (default: REPRO_WORKERS or 1; 0 means one per CPU)"
)

COMMANDS: dict[str, Command] = {
    cmd.name: cmd
    for cmd in (
        Command("run", "compile + simulate one benchmark", (
            _param("uid", check=_uid, required=True),
            _param("--wcdl", 10, _int(1), type=int),
            _param("--sb", 4, _int(1), type=int),
            _param("--scheme", "turnpike",
                   choices=("turnpike", "turnstile", "baseline")),
        )),
        Command("inject", "fault-injection campaign", (
            _param("uid", "SPLASH3.radix", _uid, nargs="?"),
            _param("--count", 30, _int(1), type=int),
            _param("--wcdl", 10, _int(1), type=int),
            _param("--seed", 2024, type=int),
            _param("--targets", _TARGETS, _csv,
                   help="comma-separated structures to strike (register, "
                   "store_buffer, clq, coloring, checkpoint, pc, memory)"),
            _param("--variants", _VARIANTS, _csv,
                   help="comma-separated protocol variants to diff"),
            _param("--shard-size", 8, _int(1), type=int,
                   help="injections per shard"),
            _workers(1, "worker processes for shards"),
            _param("--accel", "on", choices=("on", "off"),
                   help="snapshot acceleration: golden-run memoization, "
                   "injection fast-forward, and convergence early-exit "
                   "(observationally invisible; aggregate JSON is "
                   "byte-identical either way)"),
            _param("--snapshot-interval", type=int,
                   help="ticks between golden-run snapshots (<= 0: "
                   "fingerprints only, no fast-forward)"),
            _param("--ecc", check=_ecc_code, metavar="CODE",
                   help=f"decode struck words through a real ECC ({_CODES}) "
                   "instead of the abstract parity fail-safe; "
                   "miscorrections substitute the wrong value and surface "
                   "as the 'miscorrected' outcome"),
            _param("--upset", check=_upset, metavar="PATTERN",
                   help=f"multi-bit upset shape per strike ({_UPSETS}; "
                   "default: the historical single/double draw)"),
            _cli("--manifest",
                 help="JSON manifest checkpointed after every shard "
                 "(enables resume)"),
            _cli("--resume", False, action="store_true",
                 help="resume an interrupted campaign from --manifest"),
            _cli("--export", help="write the aggregate JSON to this path"),
            _cli("--sample", False, action="store_true",
                 help="stratified importance sampling over the "
                 "vulnerability map: masked strata audited at a token rate "
                 "(any failure aborts loudly), vulnerable strata sampled "
                 "adaptively until the Wilson interval is tighter than "
                 "--ci-width; reports AVF with a confidence interval "
                 "instead of per-index records"),
            _cli("--ci-width", 0.05, type=float,
                 help="--sample: target half-width of each stratum's "
                 "weighted confidence interval"),
            _cli("--confidence", 0.95, type=float,
                 help="--sample: confidence level for the Wilson intervals"),
            _cli("--token-rate", 8, type=int,
                 help="--sample: injections per masked stratum spent "
                 "cross-checking the static masked claim"),
        )),
        Command("vuln", "bit-level vulnerability analysis", (
            _param("uid", check=_uid, required=True, nargs="?"),
            _param("--scheme", "turnpike", choices=("turnpike", "turnstile")),
            _param("--wcdl", 10, _int(1), type=int),
            _param("--variants", "turnstile,warfree,turnpike", _csv,
                   help="comma-separated protocol variants to classify "
                   "under"),
            _param("--format", "text", choices=("text", "json")),
            _cli("--no-cache", False, action="store_true",
                 help="rebuild the map even when a cached artifact exists"),
            _cli("--validate", False, action="store_true",
                 help="cross-check the sampled estimator against an "
                 "exhaustive audit (default: the quick benchmark trio; "
                 "exit 1 on any misclassified masked cell or uncovered "
                 "interval)"),
            _cli("--seed", 1234, type=int, help="--validate: RNG seed"),
            _cli("--ci-width", 0.05, type=float,
                 help="--validate: target weighted interval half-width"),
        )),
        Command("lint", "statically verify compiled benchmarks", (
            _param("uid", check=_uid, nargs="?"),
            _param("--all", False, action="store_true",
                   help="lint every benchmark"),
            _param("--scheme", "turnpike", choices=("turnpike", "turnstile")),
            _param("--sb", 4, _int(1), type=int),
            _param("--format", "text", choices=("text", "json", "sarif")),
            _workers(None, _POOL_WORKERS.format("--all")),
            _param("--upset-model", "single", _upset, metavar="PATTERN",
                   help="fault model R9 checks the declared protection "
                   f"codes against ({_UPSETS}; default single)"),
            _param("--no-differential", True, key="differential",
                   action="store_false",
                   help="skip the dynamic WAR cross-check (static rules "
                   "only)"),
            _param("--strict", False, action="store_true",
                   help="treat warnings as failures"),
            _cli("--max-per-rule", 8, type=int,
                 help="text output: findings shown per rule/severity "
                 "(-1: all)"),
            _cli("--output", help="write the report to this path"),
        ), check=_lint_check),
        Command("sweep",
                "evaluate figure lattices through the multi-lane sweep engine", (
            _param("figures", check=canonical_figures, nargs="*",
                   help="figure ids to sweep (default: the whole suite); "
                   "shared design points are evaluated once"),
            _param("--benchmarks", check=_uids,
                   help="comma-separated benchmark uids (default: all 36)"),
            _workers(None, _POOL_WORKERS.format("lane batches")),
            _param("--json", "text", _choice("text", "json"), key="format",
                   action="store_const", const="json",
                   help="emit machine-readable JSON instead of tables"),
            _cli("--ecc-codes", metavar="CODES",
                 help=f"fan one fault campaign across a comma-separated "
                 f"code axis ({_CODES}; 'off' = abstract fail-safe) instead "
                 "of sweeping figures; duplicate codes dedup in order"),
            _cli("--ecc-uid", "SPLASH3.radix",
                 help="--ecc-codes: benchmark to strike"),
            _cli("--ecc-count", 24, type=int,
                 help="--ecc-codes: injections per code point"),
            _cli("--ecc-seed", 2024, type=int,
                 help="--ecc-codes: campaign seed (shared across the axis)"),
            _cli("--ecc-wcdl", 10, type=int,
                 help="--ecc-codes: worst-case detection latency"),
            _cli("--ecc-targets", _TARGETS,
                 help="--ecc-codes: comma-separated structures to strike"),
            _cli("--ecc-variants", _VARIANTS,
                 help="--ecc-codes: comma-separated protocol variants to "
                 "diff"),
            _cli("--ecc-upset", metavar="PATTERN",
                 help="--ecc-codes: multi-bit upset shape per strike "
                 "(default: the historical single/double draw)"),
        )),
        Command("ecc",
                "explore the ECC design space (codes x structures x upsets)", (
            _param("--codes", check=_ecc_codes, metavar="CODES",
                   help=f"comma-separated codes to evaluate ({_CODES}; "
                   "default: all)"),
            _param("--structure", check=_structures, key="structures",
                   metavar="NAMES",
                   help="comma-separated protected structures (sb, clq, "
                   "checkpoint; default: all)"),
            _param("--patterns", "single,adjacent-double,burst3", _patterns,
                   metavar="PATTERNS",
                   help=f"comma-separated upset shapes ({_UPSETS})"),
            _param("--trials", 2000, _int(1), type=int,
                   help="Monte-Carlo trials per (layout, pattern) when the "
                   "instance set is too large to enumerate"),
            _param("--seed", 0, type=int),
            _param("--pareto", False, action="store_true",
                   help="mark the per-structure Pareto frontier (coverage "
                   "up, area/energy down)"),
            _param("--interleave", False, action="store_true",
                   help="also evaluate bit-interleaved codeword layouts"),
            _param("--format", "text", choices=("text", "json")),
        )),
    )
}


# -- derivations --------------------------------------------------------------


def add_parser(
    subparsers: Any, command: Command, *, submit: bool = False
) -> argparse.ArgumentParser:
    """Add ``command``'s subparser: the direct one, or ``submit``'s.

    The submit flavour carries only exposed parameters, each defaulting
    to ``argparse.SUPPRESS`` so that only flags the user gave reach the
    spec; :class:`~repro.service.jobs.JobSpec` fills the defaults.
    """
    parser: argparse.ArgumentParser = subparsers.add_parser(
        command.name,
        help=f"submit a {command.name} job" if submit else command.help,
    )
    for param in command.params:
        if submit and param.role != EXPOSED:
            continue
        kwargs = dict(param.kwargs)
        kwargs["default"] = argparse.SUPPRESS if submit else param.default
        if param.flag is None:
            parser.add_argument(param.key, **kwargs)
        else:
            parser.add_argument(param.flag, dest=param.key, **kwargs)
    return parser


def spec_from_args(args: argparse.Namespace, kind: str) -> dict[str, Any]:
    """The exposed parameters present on a parsed namespace."""
    return {
        p.key: getattr(args, p.key)
        for p in COMMANDS[kind].params
        if p.role == EXPOSED and hasattr(args, p.key)
    }


def validate_args(args: argparse.Namespace, kind: str) -> None:
    """Run the table validators over a direct command's parsed values.

    Raises ValueError naming the flag, so the CLI rejects exactly the
    values :class:`~repro.service.jobs.JobSpec` would.
    """
    for param in COMMANDS[kind].params:
        value = getattr(args, param.key) if param.role == EXPOSED else None
        if value is None:  # not given; the handler decides (vuln --validate)
            continue
        try:
            param.validate(value)
        except ValueError as exc:
            raise ValueError(f"{param.flag or param.key}: {exc}") from None


def normalise(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a spec and fill its defaults, in declaration order."""
    if kind not in COMMANDS:
        raise ValueError(
            f"unknown job kind {kind!r} (expected one of {tuple(COMMANDS)})"
        )
    command = COMMANDS[kind]
    declared = command.spec_params
    unknown = sorted(set(params) - {p.key for p in declared})
    if unknown:
        raise ValueError(f"unknown {kind} parameter(s): {', '.join(unknown)}")
    normal: dict[str, Any] = {}
    for param in declared:
        if param.key in params:
            try:
                normal[param.key] = param.validate(params[param.key])
            except ValueError as exc:
                raise ValueError(f"{kind}.{param.key}: {exc}") from None
        elif param.required:
            raise ValueError(f"{kind}.{param.key} is required")
        else:
            normal[param.key] = param.default
    if command.check is not None:
        command.check(normal)
    return normal


def canonical_argv(kind: str, spec: Mapping[str, Any]) -> list[str]:
    """The ``repro`` argv that executes a normalised spec."""
    argv = [kind]
    for param in COMMANDS[kind].params:
        argv += param.argv(spec.get(param.key))
    return argv
