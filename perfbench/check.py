#!/usr/bin/env python3
"""Self-check of the benchmark itself (not of the program).

    python3 perfbench/check.py [--seconds 4]

Run from the root of a checkout. Checks that
  * every run prints exactly the metric names BENCHMARK.json lists, with
    their units, and no end-to-end metric reads 0;
  * two runs of each sim workload with one seed give identical
    simulated-time metrics and identical event and message counts;
  * a different seed changes the inputs (some simulated-time metric moves);
  * two short runs of each workload agree within each end-to-end metric's
    bound on every metric the seed does not fix (all of them on TCP;
    memory on the sim workloads), except set-up time, whose median over
    three runs must agree with that over three more.
Exits nonzero if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SIM = ("sim-commu", "sim-ordup-shard")
TCP = ("tcp-saturate",)
# Simulated-time end-to-end metrics (everything but memory and set-up
# time) and the per-layer figures a seeded simulation fixes.
SIM_E2E = ("updates_per_s", "update_stable_p50_us", "stable_lag_p50_us",
           "query_p50_us")
# setup_s has no run-to-run bound (a set-up lasts about a millisecond and
# follows the shared host's speed); its bound applies to the median over
# several runs, so that is what is compared, this many runs against as many.
SETUP_RUNS = 3
SIM_LAYER_PREFIXES = ("client.", "sim.events_per_et", "msg.", "shard.",
                      "esr.commit", "esr.query_", "esr.divergence",
                      "esr.stable_lag")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d trace %d failed (exit %d):\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-3000:]))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def check_names(result, spec, what):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == {k: m["unit"] for k, m in spec.items()},
              what + ": metric names and units match BENCHMARK.json")

    def check_bounds(wl, runs_a, runs_b, names):
        """Compares each metric's median over runs_a with that over runs_b."""
        for name in names:
            x, y = (statistics.median([r["metrics"][name]["value"] for r in runs])
                    for runs in (runs_a, runs_b))
            gap = abs(x - y) / min(abs(x), abs(y))
            check(gap <= e2e[name]["bound"], "%s: %s, median of %d run(s) "
                  "against %d more: %.4g, %.4g (gap %.3f, bound %.2f)" % (
                      wl, name, len(runs_a), len(runs_b), x, y, gap,
                      e2e[name]["bound"]))

    def check_setup(wl, done):
        """setup_s: median of SETUP_RUNS runs against SETUP_RUNS more, using
        the untraced runs already made (`done`) first."""
        runs = done + [run(wl, 100 + i, args.seconds, 0)
                       for i in range(2 * SETUP_RUNS - len(done))]
        check_bounds(wl, runs[:SETUP_RUNS], runs[SETUP_RUNS:], ["setup_s"])

    for wl in SIM:
        a, b = run(wl, 1, args.seconds, 0), run(wl, 1, args.seconds, 0)
        c = run(wl, 2, args.seconds, 0)
        check_names(a, e2e, wl)
        check(all(a["metrics"][k]["value"] != 0 for k in e2e),
              wl + ": no end-to-end metric reads 0")
        same = all(a["metrics"][k] == b["metrics"][k] for k in SIM_E2E)
        check(same and a["attempted"] == b["attempted"],
              wl + ": same seed, identical simulated-time metrics")
        check(any(a["metrics"][k] != c["metrics"][k] for k in SIM_E2E),
              wl + ": another seed changes the inputs")
        check_bounds(wl, [a], [b], [k for k in e2e
                                    if k not in SIM_E2E and k != "setup_s"])
        check_setup(wl, [a, b, c])
        ta, tb = run(wl, 1, args.seconds, 1), run(wl, 1, args.seconds, 1)
        check_names(ta, layer, wl + " traced")
        keys = [k for k in layer if k.startswith(SIM_LAYER_PREFIXES)]
        diff = [k for k in keys if ta["metrics"][k] != tb["metrics"][k]]
        check(not diff, wl + ": same seed, identical counts %s" % (diff or ""))

    for wl in TCP:
        a, b = run(wl, 1, args.seconds, 0), run(wl, 2, args.seconds, 0)
        check_names(a, e2e, wl)
        check(all(a["metrics"][k]["value"] != 0 for k in e2e),
              wl + ": no end-to-end metric reads 0")
        check_bounds(wl, [a], [b], [k for k in e2e if k != "setup_s"])
        check_setup(wl, [a, b])
        check_names(run(wl, 1, args.seconds, 1), layer, wl + " traced")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
