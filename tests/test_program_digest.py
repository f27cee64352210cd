"""Pinned structural program digests.

:func:`repro.isa.program.program_digest` is the sweep planner's
content-addressed key: digest-equal configs share one functional run
and one stats artifact. A change to its bytes silently re-keys every
sweep point, so the values for the quick subset under the baseline and
Turnpike builds are pinned here.
"""

from __future__ import annotations

import pytest

from repro.compiler.config import turnpike_config
from repro.harness.runner import RunCache, _baseline_config
from repro.isa.program import program_digest
from repro.workloads.suites import quick_subset

#: uid -> (baseline digest, turnpike digest)
PINNED = {
    "CPU2006.mcf": ("bd2c00c58e1bc3a0", "08e914a9b1bdee46"),
    "CPU2006.gcc": ("78529204c16693fd", "8f37f9793104d3db"),
    "CPU2017.bwaves": ("18cfe7172b28cc53", "6651e2187a10cea8"),
    "CPU2017.exchange2": ("7a7bd33a8437116c", "3a6a5c047bf8d73b"),
    "CPU2017.lbm": ("40431eb0fe2d624c", "88da8600ba178e41"),
    "SPLASH3.radix": ("0dc134ddecd8ce65", "9613040707a08dd7"),
}

_CACHE = RunCache(persistent=None)


def test_pins_cover_quick_subset():
    assert set(PINNED) == {p.uid for p in quick_subset()}


@pytest.mark.parametrize("uid", sorted(PINNED))
def test_program_digest_pinned(uid):
    for config, want in zip((_baseline_config(), turnpike_config()), PINNED[uid]):
        program = _CACHE.compiled_program(uid, config).program
        assert program_digest(program) == want, (uid, config.name)
        assert _CACHE.program_digest(uid, config) == want
