"""Gather benchmark runs of two checkouts into one ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py --pr N --parent A --change B \\
        --timed calibrate:3141-3150 --traced calibrate:3101 > BENCH_N.json

``A`` and ``B`` are git checkouts of the parent and the change, each of
which ran ``perfbench/run.py`` with the listed seeds, so its results lie
in its own ``perfbench/out/<workload>-seed<n>-trace<t>.json``.  A timed
run (``--trace 0``) gives the four end-to-end metrics, and the runs of
one seed on both sides are one pair; a traced run (``--trace 1``) gives
the layer metrics of ``LAYERS``.  Each side is recorded by its git
revision and the tree of its ``src``, which a squashed or rebased commit
keeps.  Per workload and metric the record holds the median and
quartiles of each side, the change of the median in percent, and the
pairs the change won.  Numbers are read from the result files, never
typed in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "run_s", "op_s", "peak_rss_mb")
LAYERS = (
    "calibration.lm_s",
    "calibration.lm_starts",
    "calibration.lm_skipped_starts",
    "calibration.lm_nfev",
    "calibration.lm_useful_ratio",
    "diffusion.bass_ode_s",
    "stochastic.langevin_s",
    "stochastic.path_steps_per_s",
    "stochastic.sample_bytes",
)
SIDES = ("parent", "change")


def seeds_of(spec):
    """``workload:first-last`` or ``workload:seed`` as (workload, seeds)."""
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def revision(checkout, name):
    return subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", name],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def result(checkout, workload, seed, trace):
    path = Path(checkout) / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def quartiles(values):
    """First and third quartile (inclusive method; one value is its own)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(pairs, names):
    """Median and quartiles of each side, the change of the median in
    percent, and the pairs the change won.

    A metric that is better lower (every one but a ratio or a rate) is
    won by the smaller value.
    """
    out = {}
    for name in names:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        lower = not name.endswith(("ratio", "_per_s"))
        medians = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": medians[0],
            "change_median": medians[1],
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_pct": 100.0 * (medians[1] / medians[0] - 1.0) if medians[0] else None,
            "change_won": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        }
    return out


def record(args):
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    bench = {
        "pr": args.pr,
        **{
            side: {"revision": revision(path, "HEAD"), "src_tree": revision(path, "HEAD:src")}
            for side, path in checkouts.items()
        },
        "workloads": {},
    }
    for kind, specs, names in (("timed", args.timed, END_TO_END), ("traced", args.traced, LAYERS)):
        for workload, seeds in map(seeds_of, specs):
            pairs = []
            for seed in seeds:
                runs = {side: result(path, workload, seed, int(kind == "traced"))
                        for side, path in checkouts.items()}
                pair = {"seed": seed}
                for side, run in runs.items():
                    pair[side] = {name: run["metrics"][name]["value"] for name in names}
                    pair[side].update(correct=run["correct"], failed=run["failed"])
                pairs.append(pair)
            bench["workloads"].setdefault(workload, {})[kind] = {
                "seconds": runs["parent"]["seconds"],
                "runs": len(pairs),
                "seeds": seeds,
                "summary": summary(pairs, names),
                "pairs": pairs,
            }
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--timed", action="append", default=[], help="workload:first-last seeds")
    parser.add_argument("--traced", action="append", default=[], help="workload:first-last seeds")
    args = parser.parse_args(argv)
    json.dump(record(args), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
