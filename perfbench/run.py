#!/usr/bin/env python3
"""Checker-live benchmark of the Hydra reproduction.

    python3 perfbench/run.py --workload fabric_checked --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Workloads (parameters in
``perfbench/spec.json``):

* ``fabric_checked`` -- the Figure 12 fabric with all 11 Table-1
  checkers; campus traffic h1->h3 plus a minority flow h2->h1 that
  waypointing must reject;
* ``fabric_bare`` -- the same fabric and traffic with no checkers;
* ``aether_churn`` -- the Aether testbed: bulk session attach, churn,
  then paced uplink/downlink/denied replay.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics (``pps``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics
measured by wrapping the program's public methods from outside, and
the spans are written to ``perfbench/out/``.  Every run checks the
fate of every offered packet and every control-plane call; the exit
code is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric_checked", "fabric_bare", "aether_churn")

END_TO_END_UNITS = {
    "pps": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(HERE, "spec.json")) as handle:
        return json.load(handle)


def _import_program() -> None:
    """Put the program's sources on the path; fail loudly without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: program sources not found under {src}; "
                         "run from the repository root")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def layer_metrics(tracer: Any, result: Any) -> Dict[str, Any]:
    """Per-layer numbers of a traced run, with their units."""
    from repro.properties import TABLE1_ORDER
    from workloads import pps

    counts = tracer.counts
    selfs = tracer.self_times()
    total = tracer.total

    def count(name: str) -> float:
        return counts.get(name, 0)

    pipeline_hops = count("p4.process_calls") + count("p4.batch_packets")
    role_time = {role: total(f"p4.process.{role}") + total(f"p4.batch.{role}")
                 for role in ("leaf", "spine")}
    extra = result.extra
    attach_s = total("aether.attach_many")
    detach_s = total("aether.detach_many")
    touched = extra.get("sessions_touched", 0)
    traced_pps = pps(result.traced_rounds)
    untraced_pps = pps(result.rounds)
    reports = {f"runtime.reports.{name}": (count(f"runtime.reports.{name}"),
                                           "count")
               for name in TABLE1_ORDER}
    gc_pauses = tracer.gc_pauses

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, Any] = {
        "workloads.generate_s": (total("workloads.generate"), "s"),
        "workloads.prepare_s": (total("workloads.prepare"), "s"),
        "workloads.flows": (count("workloads.flows"), "count"),
        "workloads.self_s": (selfs.get("workloads", 0.0), "s"),
        "compiler.compile_s": (total("compiler."), "s"),
        "compiler.self_s": (selfs.get("compiler", 0.0), "s"),
        "runtime.deploy_s": (total("runtime.deploy"), "s"),
        "runtime.control_s": (total("runtime.control"), "s"),
        "runtime.control_calls": (count("runtime.control_calls"), "count"),
        "runtime.reports": (sum(v for v, _ in reports.values()), "count"),
        **reports,
        "runtime.self_s": (selfs.get("runtime", 0.0), "s"),
        "p4.process_calls": (count("p4.process_calls"), "count"),
        "p4.batch_calls": (count("p4.batch_calls"), "count"),
        "p4.batch_packets": (count("p4.batch_packets"), "count"),
        "p4.pipeline_s": (role_time["leaf"] + role_time["spine"], "s"),
        "p4.us_per_hop.leaf": (ratio(role_time["leaf"],
                                     count("hops.leaf")) * 1e6, "us"),
        "p4.us_per_hop.spine": (ratio(role_time["spine"],
                                      count("hops.spine")) * 1e6, "us"),
        "p4.drops": (count("p4.drops"), "count"),
        "p4.set_default_action_calls": (count("p4.set_default_action_calls"),
                                        "count"),
        "p4.set_default_action_s": (total("p4.set_default_action"), "s"),
        "p4.table_write_calls": (count("p4.table_write_calls"), "count"),
        "p4.table_write_s": (total("p4.table_write"), "s"),
        "p4.config_changes": (count("p4.config_changes"), "count"),
        "p4.self_s": (selfs.get("p4", 0.0), "s"),
        "net.replay_s": (total("net.replay"), "s"),
        "net.self_s": (selfs.get("net", 0.0), "s"),
        "net.pipeline_share": (ratio(pipeline_hops, count("offered_hops")),
                               "ratio"),
        "net.burst_share": (ratio(count("p4.batch_packets"), pipeline_hops),
                            "ratio"),
        "net.packets_lost": (count("net.packets_lost"), "count"),
        "aether.attach_s": (attach_s, "s"),
        "aether.attach_calls": (extra.get("attach_calls", 0), "count"),
        "aether.detach_s": (detach_s, "s"),
        "aether.self_s": (selfs.get("aether", 0.0), "s"),
        "aether.us_per_session": (ratio(attach_s + detach_s, touched) * 1e6,
                                  "us"),
        "aether.attach_per_s": (extra.get("attach_per_s", 0.0),
                                "sessions/s"),
        "aether.detach_per_s": (extra.get("detach_per_s", 0.0),
                                "sessions/s"),
        "aether.attach_p50_ms": (extra.get("attach_p50_ms", 0.0), "ms"),
        "aether.attach_p99_ms": (extra.get("attach_p99_ms", 0.0), "ms"),
        "aether.attach_samples": (extra.get("attach_samples", 0), "count"),
        "gc.pause_s": (sum(gc_pauses), "s"),
        "gc.full_collections": (tracer.gc_full, "count"),
        "gc.max_pause_ms": (max(gc_pauses, default=0.0) * 1e3, "ms"),
        "bench.self_s": (selfs.get("bench", 0.0), "s"),
        "trace.wall_s": (tracer.roots_wall(), "s"),
        "trace.pps": (traced_pps, "pkt/s"),
        "trace.untraced_pps": (untraced_pps, "pkt/s"),
        "trace.overhead": (ratio(untraced_pps, traced_pps) - 1.0
                           if traced_pps else 0.0, "ratio"),
    }
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 params: Optional[Dict[str, Any]] = None,
                 overrides: Optional[Dict[str, Any]] = None,
                 extra_setups: bool = True,
                 min_rounds: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload; returns the result line's fields plus the
    human-readable report, the fingerprint and the tracer."""
    _import_program()
    from tracing import Tracer
    from workloads import MIN_ROUNDS, Gate, make_workload, pps

    if params is None:
        params = load_spec()["workloads"][name]
    gate = Gate(overrides)
    tracer = Tracer() if trace else None
    workload = make_workload(name, params, seed, gate, tracer)
    rounds = MIN_ROUNDS if min_rounds is None else min_rounds
    if tracer is not None:
        with tracer.gc_listener():
            result = workload.run(seconds, extra_setups, rounds)
    else:
        result = workload.run(seconds, extra_setups, rounds)

    values = {
        "pps": pps(result.rounds),
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
    }
    fingerprint = json.dumps(result.fingerprint, sort_keys=True)
    lines = [
        f"workload {name}  seed {seed}  trace {int(trace)}",
        f"  rounds {len(result.rounds)} untraced"
        + (f", {len(result.traced_rounds)} traced" if trace else "")
        + f"; setups {len(result.setup_s)}",
    ]
    for key, value in values.items():
        lines.append(f"  {key:<12} {value:.6g} {END_TO_END_UNITS[key]}")
    for key, samples in (("round pps", [n / w for n, w in result.rounds]),
                         ("setup s", result.setup_s)):
        lines.append(f"  {key:<12} " + " ".join(f"{v:.4g}" for v in samples))
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    lines.append(f"  error_rate   {error_rate:.6g} "
                 f"({gate.failed} failed of {gate.attempted} attempted)")
    extra = result.extra
    if "attach_samples" in extra:
        lines.append(
            f"  attach       {extra['attach_per_s']:.6g} sessions/s, "
            f"p50 {extra['attach_p50_ms']:.4g} ms, "
            f"p99 {extra['attach_p99_ms']:.4g} ms "
            f"({extra['attach_samples']} samples of batch "
            f"{params['batch_size']}, {extra['attach_beyond_p99']} beyond "
            f"p99); detach {extra['detach_per_s']:.6g} sessions/s")
    lines.append("  fingerprint  "
                 + hashlib.sha256(fingerprint.encode()).hexdigest()[:16])
    for mismatch in gate.mismatches:
        lines.append(f"  MISMATCH {mismatch}")

    if tracer is not None:
        layer = layer_metrics(tracer, result)
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in layer.items()}
        layers_self = sum(value for key, (value, _) in layer.items()
                          if key.endswith(".self_s"))
        lines.append(f"  layer self times sum to {layers_self:.6f} s of "
                     f"{layer['trace.wall_s'][0]:.6f} s traced wall")
        lines.append(f"  tracing overhead {layer['trace.overhead'][0]:+.1%} "
                     f"(untraced {layer['trace.untraced_pps'][0]:.6g} pps, "
                     f"traced {layer['trace.pps'][0]:.6g} pps)")
    else:
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "lines": lines,
        "fingerprint": result.fingerprint,
        "tracer": tracer,
    }


def main(argv: Optional[List[str]] = None, **options: Any) -> int:
    """The command; ``options`` pass through to :func:`run_workload`
    (the self-test shrinks the inputs and injects a wrong expectation
    this way)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), **options)
    for line in outcome["lines"]:
        print(line)
    tracer = outcome["tracer"]
    if tracer is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"  spans        {len(tracer.spans)} written to "
              f"{os.path.relpath(path, ROOT)}")
    print(json.dumps({key: outcome[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
