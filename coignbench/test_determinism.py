#!/usr/bin/env python3
"""Self-test of the Coign benchmark.

    python3 coignbench/test_determinism.py [--seconds S] [workload ...]

For every workload (default: all) it checks that
  * the metrics each run prints are exactly the ones BENCHMARK.json names,
    with the same units;
  * two traced runs with the same seed agree bit-for-bit on every exact
    counter, regret and modeled-seconds metric;
  * two untraced runs with the same seed agree on modeled_exec_s;
  * a different seed changes the generated inputs (modeled_exec_s moves);
  * every run reports correct outputs and no failed operation.
Exits non-zero on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that are pure functions of the seed.
EXACT = {
    "analyze-cli": ["profile.log_bytes", "graph.nodes", "graph.edges", "mincut.pushes",
                    "mincut.relabels", "mincut.global_relabels"],
    "fleet-cold": ["fleet.cohorts", "fleet.plans_computed", "fleet.cache_hits",
                   "fleet.hit_ratio", "fleet.regret_mean_pct", "fleet.regret_max_pct"],
    "fleet-replan": ["fleet.cohorts", "fleet.plans_computed", "fleet.cache_hits",
                     "fleet.hit_ratio", "fleet.regret_mean_pct", "fleet.regret_max_pct"],
    "online-drift": ["runtime.calls", "online.evaluations", "online.repartitions",
                     "online.instances_moved", "online.migration_bytes", "mincut.pushes",
                     "mincut.relabels", "mincut.global_relabels", "mincut.warm_start_hits"],
    "profile-log": ["profile.log_bytes", "classify.classifications"],
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "coignbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: {result['failed']} of "
                             f"{result['attempted']} operations failed")
    return result["metrics"]


def check_names(metrics, specs, what):
    expected = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: value["unit"] for name, value in metrics.items()}
    if got != expected:
        raise AssertionError(f"{what} metrics differ from BENCHMARK.json: {got} vs {expected}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*", default=list(EXACT))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(EXACT):
        raise AssertionError("BENCHMARK.json workloads differ from the benchmark's")

    for workload in args.workloads:
        traced = [run(workload, 1, args.seconds, 1) for _ in range(2)]
        untraced = run(workload, 1, args.seconds, 0)
        other_seed = run(workload, 2, args.seconds, 0)
        check_names(traced[0], spec["per_layer"], "per-layer")
        check_names(untraced, spec["end_to_end"], "end-to-end")
        for name in EXACT[workload]:
            first, second = traced[0][name]["value"], traced[1][name]["value"]
            if first != second:
                raise AssertionError(f"{workload}: {name} not exact: {first} vs {second}")
        modeled = untraced["modeled_exec_s"]["value"]
        if modeled != run(workload, 1, args.seconds, 0)["modeled_exec_s"]["value"]:
            raise AssertionError(f"{workload}: modeled_exec_s differs between same-seed runs")
        if modeled == other_seed["modeled_exec_s"]["value"]:
            raise AssertionError(f"{workload}: seed 2 generated the same inputs as seed 1")
        print(f"ok  {workload}: {len(EXACT[workload])} exact counters repeat, "
              f"modeled_exec_s {modeled:.9g} s (seed 2: "
              f"{other_seed['modeled_exec_s']['value']:.9g} s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        sys.exit(1)
