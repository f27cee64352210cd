"""The direct CLI and the job service reject the same values.

Parameterised over :data:`repro.commands.COMMANDS`: every exposed
parameter of the six job-kind commands either has a bad spelling listed
in ``BAD`` (which ``repro <kind>`` must refuse with exit 2 *and*
``JobSpec.create`` must refuse with ValueError) or is listed in
``ANY_VALUE`` because every value argparse lets through is valid.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.commands import COMMANDS, EXPOSED
from repro.service.jobs import JobSpec

UID = "CPU2006.mcf"

#: A bad CLI spelling per validated (kind, spec key).
BAD = {
    ("run", "uid"): "NOPE.nope",
    ("run", "wcdl"): "-3",
    ("run", "sb"): "0",
    ("run", "scheme"): "fastest",
    ("inject", "uid"): "NOPE.nope",
    ("inject", "count"): "0",
    ("inject", "wcdl"): "0",
    ("inject", "targets"): " ",
    ("inject", "variants"): " ",
    ("inject", "shard_size"): "0",
    ("inject", "accel"): "maybe",
    ("inject", "ecc"): "golay",
    ("inject", "upset"): "burst0x",
    ("vuln", "uid"): "NOPE.nope",
    ("vuln", "scheme"): "baseline",
    ("vuln", "wcdl"): "0",
    ("vuln", "variants"): " ",
    ("vuln", "format"): "sarif",
    ("lint", "uid"): "NOPE.nope",
    ("lint", "scheme"): "baseline",
    ("lint", "sb"): "0",
    ("lint", "format"): "csv",
    ("lint", "upset_model"): "burst0x",
    ("sweep", "figures"): "fig99",
    ("sweep", "benchmarks"): "NOPE.nope",
    ("ecc", "codes"): "golay",
    ("ecc", "structures"): "rob",
    ("ecc", "patterns"): "burst0x",
    ("ecc", "trials"): "0",
    ("ecc", "format"): "sarif",
}

#: Parameters with no bad value argparse lets through.
ANY_VALUE = {
    ("inject", "seed"), ("inject", "snapshot_interval"),
    ("lint", "all"), ("lint", "differential"), ("lint", "strict"),
    ("sweep", "format"), ("ecc", "seed"), ("ecc", "pareto"),
    ("ecc", "interleave"),
}

EXPOSED_PARAMS = [
    (kind, param)
    for kind, command in COMMANDS.items()
    for param in command.params
    if param.role == EXPOSED
]


def test_every_exposed_param_is_covered():
    assert {(kind, p.key) for kind, p in EXPOSED_PARAMS} == set(BAD) | ANY_VALUE


@pytest.mark.parametrize(
    "kind,param",
    [(kind, p) for kind, p in EXPOSED_PARAMS if (kind, p.key) in BAD],
    ids=[f"{kind}.{p.key}" for kind, p in EXPOSED_PARAMS if (kind, p.key) in BAD],
)
def test_cli_and_service_reject_the_same_values(kind, param, capsys):
    bad = BAD[kind, param.key]
    if param.flag is None:
        argv = [kind, bad]
    else:
        argv = [kind, *([UID] if kind in ("run", "lint", "vuln") else [])]
        argv += [param.flag, bad]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own choices/type errors
        code = exc.code
    assert code == 2, argv
    assert capsys.readouterr().out == ""

    value: object = int(bad) if param.kwargs.get("type") is int else bad
    if param.kwargs.get("nargs") == "*":
        value = [bad]
    base = {"uid": UID} if kind in ("run", "lint", "vuln") else {}
    with pytest.raises(ValueError):
        JobSpec.create(kind, {**base, param.key: value})


#: Spellings of the retired multi-node fabric and its shard leases, and
#: of the retired functional-backend selector: the CLI refuses each
#: before doing any work, and no job spec carries them.
RETIRED = [
    ["serve", "--role", "worker"],
    ["nodes"],
    ["inject", "SPLASH3.radix", "--shards", "0:1"],
    ["submit", "inject", "--shards", "0:1"],
    ["run", "CPU2006.mcf", "--backend", "reference"],
    ["submit", "run", "CPU2006.mcf", "--backend", "fast"],
    ("inject", {"shards": "0:1"}),
    ("inject", {"store_dir": "/x"}),
    ("run", {"backend": "fast"}),
]


@pytest.mark.parametrize(
    "spelling", RETIRED,
    ids=[" ".join(s) if isinstance(s, list) else f"spec.{next(iter(s[1]))}"
         for s in RETIRED],
)
def test_retired_spellings_are_rejected(spelling, capsys):
    if isinstance(spelling, tuple):
        kind, params = spelling
        (key,) = params
        with pytest.raises(ValueError, match=f"unknown {kind} parameter.*{key}"):
            JobSpec.create(kind, params)
        return
    try:
        code = main(spelling)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
