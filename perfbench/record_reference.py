"""Record the digests the benchmark checks every output against.

The program's outputs are meant to stay byte-identical, so this runs
only when a change is meant to alter them, or when the benchmark's
inputs change. Run from the repository root::

    python3 perfbench/record_reference.py

It computes every reference from scratch (about five minutes on a
2-core container): the figure suite over all 36 benchmarks, split into
one digest per benchmark plus one for the benchmark-free part; one
``SimStats`` digest per solo point; one campaign aggregate digest per
committed inject case.
"""

import json
import os
import sys

import run

os.environ.update(run.PINNED_ENV)
for _name in run.UNSET_ENV:
    os.environ.pop(_name, None)
sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402
from repro.faults import campaign  # noqa: E402
from repro.harness import experiments  # noqa: E402
from repro.harness.runner import RunCache, default_schemes, simulate  # noqa: E402
from repro.workloads.suites import all_profiles  # noqa: E402


def main() -> int:
    uids = sorted(p.uid for p in all_profiles())
    tree = wl.plain(experiments.figure_suite(uids, cache=RunCache(persistent=None)))
    uid_digests, common, geomeans_ok = wl.split_figures(tree, uids)
    if not geomeans_ok:
        print("figure geomeans disagree with their per-benchmark values",
              file=sys.stderr)
        return 1
    cache = RunCache(persistent=None)
    solo = {
        f"{uid}|{name}": wl.stats_digest(simulate(uid, c, h, cache=cache))
        for uid in uids for name, c, h in default_schemes()
    }
    inject = {}
    for case in range(wl.INJECT_CASES):
        uid, campaign_seed = wl.inject_case(case)
        campaign._GOLDEN_CACHE.clear()
        campaign._WORKER_CACHE.clear()
        spec = campaign.CampaignSpec(uid=uid, count=wl.INJECT_COUNT,
                                     seed=campaign_seed)
        report = campaign.CampaignRunner(spec).run()
        inject[wl.inject_key(uid, campaign_seed)] = wl.digest(report.to_json())
        print(f"inject case {case}: {uid} seed {campaign_seed}", file=sys.stderr)
    reference = {
        "figures": {"common": common, "uids": uid_digests},
        "solo": solo,
        "inject": inject,
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
