#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute):

    python3 perfbench/selftest.py

It checks that

* the metric names and units each run prints are the ones in
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced), and every
  per-layer metric says in ``spec.json`` what it should move;
* two runs with the same seed agree exactly on every deterministic
  count (delivered packets and bytes, last virtual arrival, reports per
  checker, sessions attached, pipeline hops per switch);
* the held-out seed passes the correctness gate;
* an injected wrong expectation (no waypointing reports expected) fails
  the gate and makes the command exit nonzero;
* attach percentiles are printed with their sample counts;
* the per-layer self times add up to the traced wall time;
* a replay that livelocks fails the run instead of hanging it.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

#: Tiny sizes: enough rounds and calls to exercise every path.
TINY = {
    "fabric_checked": {"round_packets": 300},
    "fabric_bare": {"round_packets": 1500},
    "aether_churn": {"sessions": 1600},
}
FAST = {"seconds": 0.0, "extra_setups": False, "min_rounds": 2}


def tiny_params(spec: Dict[str, Any], name: str) -> Dict[str, Any]:
    params = dict(spec["workloads"][name])
    params.update(TINY[name])
    return params


def main() -> int:
    spec = run.load_spec()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in bench["workloads"])
          == sorted(run.WORKLOADS), "workloads match BENCHMARK.json")
    moves = spec["per_layer_moves"]
    unmapped = [name for name in layers if name not in moves and not any(
        key.endswith(".*") and name.startswith(key[:-1]) for key in moves)]
    check(not unmapped, f"every per-layer metric is mapped ({unmapped})")

    seeds = spec["seeds"]
    for name in run.WORKLOADS:
        params = tiny_params(spec, name)
        first = run.run_workload(name, seeds["build"], trace=False,
                                 params=params, **FAST)
        again = run.run_workload(name, seeds["build"], trace=False,
                                 params=params, **FAST)
        held = run.run_workload(name, seeds["held_out"], trace=False,
                                params=params, **FAST)
        traced = run.run_workload(name, seeds["build"], trace=True,
                                  params=params, **FAST)
        printed = {k: v["unit"] for k, v in first["metrics"].items()}
        check(printed == e2e, f"{name}: end-to-end names and units")
        printed = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(printed == layers, f"{name}: per-layer names and units")
        check(all(v["value"] > 0 for v in first["metrics"].values()),
              f"{name}: every end-to-end metric is nonzero")
        check(first["fingerprint"] == again["fingerprint"],
              f"{name}: same seed, same deterministic counts")
        check(first["fingerprint"] != held["fingerprint"],
              f"{name}: another seed, other inputs")
        common = len(first["fingerprint"]["rounds"])
        check(traced["fingerprint"]["rounds"][:common]
              == first["fingerprint"]["rounds"],
              f"{name}: tracing leaves the deterministic counts unchanged")
        for label, outcome in (("build seed", first),
                               ("held-out seed", held),
                               ("traced", traced)):
            check(outcome["correct"] and outcome["failed"] == 0
                  and outcome["attempted"] > 0,
                  f"{name}: error_rate 0 on the {label} "
                  f"({outcome['failed']} of {outcome['attempted']})")
        metrics = traced["metrics"]
        parts = sum(v["value"] for k, v in metrics.items()
                    if k.endswith(".self_s"))
        wall = metrics["trace.wall_s"]["value"]
        check(wall > 0 and abs(parts - wall) <= 1e-6 * wall,
              f"{name}: layer self times sum to the traced wall "
              f"({parts:.6f} of {wall:.6f} s)")
        if name == "fabric_checked":
            reports = metrics["runtime.reports.waypointing"]["value"]
            check(reports > 0 and reports == metrics["p4.drops"]["value"]
                  == metrics["runtime.reports"]["value"],
                  f"{name}: one waypointing report per dropped packet "
                  f"({reports})")
        if name == "aether_churn":
            check(any("samples" in line and "p99" in line
                      for line in first["lines"]),
                  f"{name}: attach percentiles print their sample count")

    # A wrong expectation must fail the gate and the command.
    name = "fabric_checked"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed",
                         str(seeds["build"]), "--seconds", "0"],
                        overrides={"reports.waypointing": 0},
                        params=tiny_params(spec, name),
                        extra_setups=False, min_rounds=1)
    last = json.loads(stdout.getvalue().strip().splitlines()[-1])
    check(code != 0 and not last["correct"] and last["failed"] > 0,
          "an injected wrong expectation fails the gate "
          f"(exit {code}, failed {last['failed']})")

    # A livelocked replay must fail the run, not hang it.  At the commit
    # that added this benchmark, seed 303 stalls fabric_bare's round 1:
    # in Network._drain two parked packets due at the same virtual time
    # each yield to the other forever.
    import workloads
    workloads.ROUND_TIMEOUT_S = 15.0
    stall = run.run_workload("fabric_bare", 303, 0.0, False,
                             extra_setups=False, min_rounds=1)
    stalled = [line for line in stall["lines"] if "stalled" in line]
    check(stall["correct"] or (bool(stalled) and stall["failed"] > 0),
          "a stalled replay fails the run instead of hanging it"
          + (f" ({stalled[0].strip()})" if stalled else " (no stall)"))

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
