"""The three benchmark workloads and the correctness gate of each.

Every workload sets up its deployment (``aether_churn`` then attaches
and churns its sessions, timing each control-plane call), replays one
warm-up round, and then measures for a fixed wall-clock window in
rounds.  A round's inputs are a pure function of the seed and the round
index, and every round checks the fate of each offered packet against
the expected one.  ``pps`` is the offered packets of all rounds divided
by their wall time; a round's wall time runs from the first emission
generated to the last packet delivered.  ``setup_s`` is the median of
several set-ups interleaved with the rounds.

With a :class:`~tracing.Tracer`, set-up and the control-plane phases
run traced, and rounds alternate between untraced and traced so the
same run states the tracing overhead.
"""

from __future__ import annotations

import gc
import random
import resource
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.aether import (ALLOW, CELL_HOST, DENY, SERVER_HOST, AetherCapacity,
                          AetherTestbed, FilterRule)
from repro.aether import testbed as testbed_module
from repro.aether.upf import upf_program
from repro.experiments.fig12 import (configure_checker_controls,
                                     install_fabric_routes)
from repro.experiments.throughput import ReplayFeed
from repro.net.packet import Packet, make_udp
from repro.net.simulator import Network
from repro.net.topology import leaf_spine
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import TABLE1_ORDER, compile_suite
from repro.runtime.deployment import HydraDeployment
from repro.workloads.campus import CampusTraceGenerator

from tracing import Tracer

_clock = time.perf_counter

#: Set-ups per run.  After the first, more are made at SETUP_POINTS
#: evenly spaced points of the measuring window -- at least SETUP_MIN
#: in all, and as many as fit in SETUP_SHARE of the window, up to
#: SETUP_MAX -- so the median spans the same stretch of machine time as
#: the rounds.
SETUP_POINTS = 3
SETUP_MIN = 3
SETUP_MAX = 40
SETUP_SHARE = 0.1
#: Measured rounds per run, at least (the window may allow more).
MIN_ROUNDS = 3
#: Virtual-time gap between rounds, so a round starts on an idle fabric.
ROUND_GAP_S = 1e-3
#: A replay still running after this many seconds (a round takes a few)
#: is reported as stalled: its unsettled packets count as failed and
#: the run ends, so a livelock in the program fails the run instead of
#: hanging it.
ROUND_TIMEOUT_S = 60.0


class Stalled(Exception):
    """A replay made no result within ROUND_TIMEOUT_S."""


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise Stalled(f"network.run() still running after {ROUND_TIMEOUT_S:g} s")


@contextmanager
def _watchdog() -> Iterator[None]:
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, ROUND_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _replay(network: Network,
            sources: List[Tuple[str, Iterable[Tuple[float, Packet]]]]
            ) -> None:
    """Stream each host's emissions into the network and run it."""
    for host, emissions in sources:
        network.attach_source(host, emissions)
    with _watchdog():
        network.run()


class Gate:
    """Counts attempted operations and failures, and keeps the first
    mismatches for the report.

    ``overrides`` replaces the expected value of a named check; the
    self-test uses it to show that a wrong expectation fails the run.
    """

    def __init__(self, overrides: Optional[Dict[str, Any]] = None):
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self._overrides = overrides or {}

    def offered(self, count: int) -> None:
        self.attempted += count

    def expect(self, check: str, actual: Any, expected: Any) -> None:
        expected = self._overrides.get(check, expected)
        if actual == expected:
            return
        if isinstance(actual, int) and isinstance(expected, int):
            self.failed += max(1, abs(actual - expected))
        else:
            self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(
                f"{check}: expected {expected!r}, got {actual!r}")

    def stalled(self, tag: str, exc: Stalled, generated: int,
                before: Dict[str, Any], after: Dict[str, Any]) -> None:
        """A stalled round: every packet it generated that was neither
        delivered nor counted as dropped has failed."""
        self.offered(generated)
        settled = sum(after[key] - before[key]
                      for key in ("delivered", "lost", "nic_drops"))
        self.failed += max(1, generated - settled)
        self.mismatches.append(
            f"{tag} stalled: {exc}; {generated - settled} of {generated} "
            "packets unsettled")

    def call(self, what: str, fn: Callable[..., Any], *args: Any) -> Any:
        """One control-plane call: counted as attempted, and as failed
        (then re-raised) if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.mismatches.append(f"{what} raised {exc!r}")
            raise


class Result:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        #: (offered packets, wall seconds) per measured round.
        self.rounds: List[Tuple[int, float]] = []
        self.traced_rounds: List[Tuple[int, float]] = []
        self.fingerprint: Dict[str, Any] = {"rounds": []}
        self.extra: Dict[str, Any] = {}
        #: Peak RSS once the first min_rounds rounds are done: a fixed
        #: amount of work, so the figure does not grow with the number
        #: of rounds a fast machine fits into the window.
        self.peak_rss_mb = 0.0


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _shifted(emissions: Iterable[Tuple[float, Packet]],
             base: float) -> Iterator[Tuple[float, Packet]]:
    for when, packet in emissions:
        yield base + when, packet


def _round_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pps(rounds: List[Tuple[int, float]]) -> float:
    """Offered packets per wall second over all rounds.  Rounds differ
    in their inputs (heavy-tailed flows), so the total averages the
    inputs where a median of rounds would pick one."""
    wall = sum(w for _, w in rounds)
    return sum(n for n, _ in rounds) / wall if wall else 0.0


def _setups_at(build: Callable[[Result], Any], result: Result,
               point: int, elapsed: float) -> None:
    """Set up again (dropping the result) until the count and time
    targets of the ``point``-th of SETUP_POINTS are met."""
    count = SETUP_MIN * point // SETUP_POINTS
    while len(result.setup_s) < SETUP_MAX and (
            len(result.setup_s) < count
            or sum(result.setup_s) < SETUP_SHARE * elapsed):
        build(result)
    # The dropped deployments are cyclic garbage; collect them here
    # rather than inside the next round.
    gc.collect()


def _measure_rounds(run_round: Callable[[int, Optional[Tracer]],
                                        Optional[Tuple[int, float]]],
                    result: Result, seconds: float, tracer: Optional[Tracer],
                    min_rounds: int, build: Optional[Callable[[Result], Any]],
                    first_round: int = 1) -> None:
    """Run rounds for ``seconds`` (and at least ``min_rounds``).  With a
    tracer, untraced and traced rounds alternate, ``min_rounds`` of
    each at least.  ``build``, if given, sets up again at the
    SETUP_POINTS points of the window.  A stalled round (``None``) ends
    the run."""
    window_start = _clock()
    index = first_round
    point = 0
    while True:
        outcome = run_round(index, None)
        if outcome is None:
            return
        result.rounds.append(outcome)
        index += 1
        rounds = len(result.rounds)
        if tracer is not None:
            with tracer.active(), tracer.span("bench.round"):
                outcome = run_round(index, tracer)
            if outcome is None:
                return
            result.traced_rounds.append(outcome)
            index += 1
            rounds = len(result.traced_rounds)
        if rounds == min_rounds:
            result.peak_rss_mb = _peak_rss_mb()
        elapsed = _clock() - window_start
        if build is not None:
            while (point < SETUP_POINTS
                   and elapsed >= seconds * (point + 1) / SETUP_POINTS):
                point += 1
                _setups_at(build, result, point, elapsed)
        if rounds >= min_rounds and elapsed >= seconds and (
                build is None or point == SETUP_POINTS):
            return


# ======================================================================
# fabric_checked / fabric_bare
# ======================================================================

class Fabric:
    """The Figure 12 fabric (2x2 leaf-spine, fabric-upf, codegen,
    batched), with every Table-1 checker or with none."""

    def __init__(self, params: Dict[str, Any], checked: bool, seed: int,
                 gate: Gate, tracer: Optional[Tracer]):
        self.params = params
        self.checked = checked
        self.seed = seed
        self.gate = gate
        self.tracer = tracer
        self.rate = float(params["offered_rate_pps"])
        self.round_packets = int(params["round_packets"])
        self.minority_share = (float(params["minority_share"])
                               if checked else 0.0)

    def build(self, result: Result):
        tracer = self.tracer
        gate = self.gate
        start = _clock()
        topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        with _span(tracer, "aether.upf_program"):
            forwarding = {name: upf_program(f"fabric_upf_{name}")
                          for name in topology.switches}
        deployment = None
        if self.checked:
            with _span(tracer, "compiler.compile_suite"):
                compiled = gate.call("compile_suite", compile_suite,
                                     list(TABLE1_ORDER))
            deployment = gate.call(
                "HydraDeployment", lambda: HydraDeployment(
                    topology, compiled, forwarding, engine="codegen",
                    batched=True))
            network, switches = deployment.network, deployment.switches
        else:
            with _span(tracer, "p4.build_switches"):
                switches = {
                    name: Bmv2Switch(forwarding[name], name=name,
                                     switch_id=spec.switch_id,
                                     engine="codegen")
                    for name, spec in topology.switches.items()}
            with _span(tracer, "net.build_network"):
                network = Network(topology, switches, batched=True)
        if tracer is not None:
            digests = ({c.report_digest: c.name
                        for c in deployment.compileds}
                       if deployment is not None else {})
            tracer.listen(switches, digests)
        with _span(tracer, "runtime.control.routes"):
            gate.call("install_fabric_routes", install_fabric_routes,
                      topology, switches)
        if tracer is not None:
            tracer.count("runtime.control_calls")
        if deployment is not None:
            gate.call("configure_checker_controls",
                      configure_checker_controls, deployment, topology)
        result.setup_s.append(_clock() - start)
        return network, deployment

    def run(self, seconds: float, extra_setups: bool,
            min_rounds: int) -> Result:
        result = Result()
        tracer = self.tracer
        if tracer is not None:
            with tracer.active(), tracer.span("bench.setup"):
                built = self.build(result)
        else:
            built = self.build(result)
        self.network, self.deployment = built
        # Warm-up round: checked, not timed (codegen table indexes and
        # the flow cache fill lazily on the first packets).
        if self.round(0, None, result) is not None:
            _measure_rounds(lambda i, t: self.round(i, t, result), result,
                            seconds, tracer, min_rounds,
                            self.build if tracer is None and extra_setups
                            else None)
        return result

    def _minority(self, index: int, duration: float
                  ) -> Iterator[Tuple[float, Packet]]:
        """The one-hop h2 -> h1 flow that waypointing must reject."""
        if not self.minority_share:
            return
        hosts = self.network.topology.hosts
        rng = random.Random(_round_seed(self.seed, index) ^ 0x5A5A)
        packet = make_udp(hosts["h2"].ipv4, hosts["h1"].ipv4, 7000, 7001,
                          payload_len=74)
        rate = self.rate * self.minority_share
        now = 0.0
        while True:
            now += rng.expovariate(rate)
            if now > duration:
                return
            yield now, packet

    def _snapshot(self) -> Dict[str, Any]:
        network = self.network
        hosts = network.hosts
        snap = {
            "h1": hosts["h1"].rx_count,
            "h3": hosts["h3"].rx_count,
            "h3_bytes": hosts["h3"].rx_bytes,
            "delivered": sum(h.rx_count for h in hosts.values()),
            "lost": network.packets_lost,
            "nic_drops": sum(h.nic_drops for h in hosts.values()),
            "digests": network.reports.total,
            "hops": {name: device.bmv2.packets_processed
                     for name, device in network.switches.items()},
        }
        if self.deployment is not None:
            snap["reports"] = len(self.deployment.reports)
        return snap

    def round(self, index: int, tracer: Optional[Tracer],
              result: Result) -> Optional[Tuple[int, float]]:
        network = self.network
        hosts = network.topology.hosts
        duration = self.round_packets / self.rate
        round_seed = _round_seed(self.seed, index)
        base = network.sim.now + ROUND_GAP_S
        feed = ReplayFeed(CampusTraceGenerator(seed=round_seed,
                                               reuse_packets=True),
                          src_ip=hosts["h1"].ipv4, dst_ip=hosts["h3"].ipv4,
                          rate_pps=self.rate, duration_s=duration)
        campus = _shifted(feed.emissions(), base)
        minority_count = [0]

        def minority() -> Iterator[Tuple[float, Packet]]:
            for item in _shifted(self._minority(index, duration), base):
                minority_count[0] += 1
                yield item

        before = self._snapshot()
        try:
            if tracer is None:
                start = _clock()
                _replay(network, [("h1", campus), ("h2", minority())])
                wall = _clock() - start
            else:
                with tracer.span("workloads.generate"):
                    generator = CampusTraceGenerator(seed=round_seed,
                                                     reuse_packets=True)
                    for _ in generator.timed_packets(self.rate, duration):
                        pass
                tracer.count("workloads.flows", generator.stats.flows)
                start = _clock()
                with tracer.span("workloads.prepare"):
                    campus_trace = list(campus)
                    minority_trace = list(minority())
                with tracer.span("net.replay"):
                    _replay(network, [("h1", iter(campus_trace)),
                                      ("h2", iter(minority_trace))])
                wall = _clock() - start
        except Stalled as exc:
            self.gate.stalled(f"round {index}", exc,
                              feed.offered + minority_count[0], before,
                              self._snapshot())
            return None
        after = self._snapshot()
        offered = feed.offered + minority_count[0]
        self._check(index, before, after, feed, minority_count[0], result)
        if tracer is not None:
            tracer.count("offered_hops", 3 * feed.offered
                         + minority_count[0])
            tracer.count("net.packets_lost", after["lost"] - before["lost"])
        return offered, wall

    def _check(self, index: int, before: Dict[str, Any],
               after: Dict[str, Any], feed: ReplayFeed, minority: int,
               result: Result) -> None:
        gate = self.gate
        offered = feed.offered + minority
        gate.offered(offered)

        def delta(key: str) -> int:
            return after[key] - before[key]

        tag = f"round {index}"
        gate.expect(f"{tag} h1->h3 delivered", delta("h3"), feed.offered)
        gate.expect(f"{tag} h1->h3 bytes", delta("h3_bytes"),
                    feed.offered_bytes)
        gate.expect(f"{tag} h2->h1 delivered", delta("h1"), 0)
        gate.expect(f"{tag} dropped", delta("lost"), minority)
        gate.expect(f"{tag} conservation",
                    delta("delivered") + delta("lost") + delta("nic_drops"),
                    offered)
        reports: Dict[str, int] = {}
        if self.deployment is not None:
            new = self.deployment.reports[before["reports"]:]
            reports = dict(sorted(Counter(r.checker for r in new).items()))
            at_leaf1 = sum(1 for r in new if r.checker == "waypointing"
                           and r.switch_name == "leaf1")
            gate.expect("reports.waypointing", at_leaf1, minority)
            gate.expect(f"{tag} reports from other checkers",
                        len(new) - reports.get("waypointing", 0), 0)
        else:
            gate.expect(f"{tag} reports", delta("digests"), 0)
        last = self.network.hosts["h3"].last_rx_time
        result.fingerprint["rounds"].append({
            "offered": offered,
            "delivered": delta("delivered"),
            "delivered_bytes": delta("h3_bytes"),
            "last_arrival": repr(last),
            "reports": reports,
            "hops": {name: after["hops"][name] - before["hops"][name]
                     for name in sorted(after["hops"])},
        })


# ======================================================================
# aether_churn
# ======================================================================

_UPLINK_DPORT = 80
_DENIED_DPORT = 9999


def _imsi(index: int) -> str:
    return f"imsi{index}"


class AetherChurn:
    """The Aether testbed under session churn, then paced replay."""

    def __init__(self, params: Dict[str, Any], seed: int, gate: Gate,
                 tracer: Optional[Tracer]):
        self.params = params
        self.seed = seed
        self.gate = gate
        self.tracer = tracer
        self.sessions = int(params["sessions"])
        self.batch = int(params["batch_size"])
        self.slices = int(params["slices"])
        # The seed permutes the attach order and picks each UE's slice;
        # the churned and replayed UEs are every n-th in that order.
        rng = random.Random(seed)
        self.order = list(range(1, self.sessions + 1))
        rng.shuffle(self.order)
        self.slice_of = {i: f"slice{rng.randrange(self.slices)}"
                         for i in self.order}

    def build(self, result: Result) -> Tuple[AetherTestbed, int]:
        tracer = self.tracer
        gate = self.gate
        start = _clock()
        if tracer is not None:
            tracer.patch_function(testbed_module, "compile_property",
                                  "compiler.compile_property")
        with _span(tracer, "aether.testbed"):
            tb = gate.call("AetherTestbed", lambda: AetherTestbed(
                capacity=AetherCapacity(max_sessions=self.sessions,
                                        rules_per_session=2),
                engine="codegen", batched=True))
        if tracer is not None:
            tracer.listen(tb.deployment.switches,
                          {tb.compiled.report_digest: tb.compiled.name})
        server_ip = tb.topology.hosts[SERVER_HOST].ipv4
        rules = [
            FilterRule(priority=20, ip_prefix=(server_ip, 32), proto=17,
                       l4_port=(_UPLINK_DPORT, _UPLINK_DPORT),
                       action=ALLOW),
            FilterRule(priority=1, action=DENY),
        ]
        members: Dict[str, List[str]] = {}
        for index in self.order:
            members.setdefault(self.slice_of[index], []).append(
                _imsi(index))
        with _span(tracer, "aether.provision"):
            for s in range(self.slices):
                name = f"slice{s}"
                gate.call("provision_slice", tb.provision_slice, name, rules)
                gate.call("add_members", tb.portal.add_members, name,
                          members.get(name, []))
        result.setup_s.append(_clock() - start)
        return tb, server_ip

    def _chunks(self, items: List[int]) -> Iterator[List[int]]:
        for start in range(0, len(items), self.batch):
            yield items[start:start + self.batch]

    def _attach(self, batch: List[int], samples: List[float]) -> float:
        pairs = [(_imsi(i), i) for i in batch]
        with _span(self.tracer, "aether.attach_many"):
            start = _clock()
            self.gate.call("attach_many", self.tb.attach_many, pairs)
            elapsed = _clock() - start
        samples.append(elapsed)
        return elapsed

    def _detach(self, batch: List[int]) -> float:
        imsis = [_imsi(i) for i in batch]
        with _span(self.tracer, "aether.detach_many"):
            start = _clock()
            self.gate.call("detach_many", self.tb.detach_many, imsis)
            elapsed = _clock() - start
        return elapsed

    def run(self, seconds: float, extra_setups: bool,
            min_rounds: int) -> Result:
        result = Result()
        tracer = self.tracer
        if tracer is not None:
            with tracer.active(), tracer.span("bench.setup"):
                built = self.build(result)
        else:
            built = self.build(result)
        self.tb, self.server_ip = built
        samples: List[float] = []
        with (tracer.active() if tracer is not None else nullcontext()), \
                _span(tracer, "bench.attach"):
            attach_s = sum(self._attach(batch, samples)
                           for batch in self._chunks(self.order))
            churned = self.order[::int(self.params["churn_every"])]
            detach_s = 0.0
            reattach_s = 0.0
            for batch in self._chunks(churned):
                detach_s += self._detach(batch)
                reattach_s += self._attach(batch, samples)
        attached = len(self.tb.onos.clients)
        self.gate.expect("sessions attached after churn", attached,
                         self.sessions)
        ordered = sorted(samples)
        p99 = _percentile(ordered, 0.99)
        result.extra.update({
            "attach_per_s": (self.sessions + len(churned))
            / (attach_s + reattach_s),
            "detach_per_s": len(churned) / detach_s if churned else 0.0,
            "attach_s": attach_s + reattach_s,
            "detach_s": detach_s,
            "attach_calls": len(samples),
            "attach_p50_ms": _percentile(ordered, 0.50) * 1e3,
            "attach_p99_ms": p99 * 1e3,
            "attach_samples": len(ordered),
            "attach_beyond_p99": sum(1 for s in ordered if s > p99),
            "sessions_touched": self.sessions + 2 * len(churned),
        })
        result.fingerprint["sessions_attached"] = attached
        result.fingerprint["churned"] = sorted(churned)
        self._replay_plan()
        # Warm-up round: checked, not timed (the table indexes the churn
        # invalidated are rebuilt lazily on the first packets).
        if self.round(0, None, result) is not None:
            _measure_rounds(lambda i, t: self.round(i, t, result), result,
                            seconds, tracer, min_rounds,
                            self.build if tracer is None and extra_setups
                            else None)
        return result

    def _replay_plan(self) -> None:
        p = self.params
        order = self.order
        self.uplink_ues = sorted(order[::int(p["replay_every"])])
        self.downlink_ues = set(order[::int(p["downlink_every"])])
        self.denied_ues = set(order[::int(p["denied_every"])])
        self.gap = 1.0 / float(p["pace_pps"])

    def _streams(self, base: float
                 ) -> Tuple[Iterator[Tuple[float, Packet]],
                            Iterator[Tuple[float, Packet]]]:
        """Paced cell (uplink + denied) and server (downlink) streams;
        packets are built as the streams are drained."""
        tb = self.tb
        server_ip = self.server_ip
        cell: List[Tuple[int, int, int]] = []
        server: List[Tuple[int, int]] = []
        tick = 0
        for ue in self.uplink_ues:
            cell.append((tick, ue, _UPLINK_DPORT))
            tick += 1
            if ue in self.downlink_ues:
                server.append((tick, ue))
                tick += 1
            if ue in self.denied_ues:
                cell.append((tick, ue, _DENIED_DPORT))
                tick += 1
        gap = self.gap

        def cell_stream() -> Iterator[Tuple[float, Packet]]:
            for t, ue, dport in cell:
                yield base + t * gap, tb.uplink_packet(_imsi(ue), server_ip,
                                                       dport)

        def server_stream() -> Iterator[Tuple[float, Packet]]:
            for t, ue in server:
                yield base + t * gap, tb.downlink_packet(
                    server_ip, _imsi(ue), _UPLINK_DPORT)

        return cell_stream(), server_stream()

    def _snapshot(self) -> Dict[str, Any]:
        network = self.tb.network
        hosts = network.hosts
        return {
            "cell": hosts[CELL_HOST].rx_count,
            "server": hosts[SERVER_HOST].rx_count,
            "delivered": sum(h.rx_count for h in hosts.values()),
            "bytes": sum(h.rx_bytes for h in hosts.values()),
            "lost": network.packets_lost,
            "nic_drops": sum(h.nic_drops for h in hosts.values()),
            "reports": len(self.tb.reports),
            "hops": {name: device.bmv2.packets_processed
                     for name, device in network.switches.items()},
        }

    def round(self, index: int, tracer: Optional[Tracer],
              result: Result) -> Optional[Tuple[int, float]]:
        network = self.tb.network
        base = network.sim.now + ROUND_GAP_S
        cell, server = self._streams(base)
        uplinks = len(self.uplink_ues)
        downlinks = len(self.downlink_ues)
        denied = len(self.denied_ues)
        offered = uplinks + downlinks + denied
        before = self._snapshot()
        try:
            if tracer is None:
                start = _clock()
                _replay(network, [(CELL_HOST, cell), (SERVER_HOST, server)])
                wall = _clock() - start
            else:
                start = _clock()
                with tracer.span("workloads.prepare"):
                    cell_trace = list(cell)
                    server_trace = list(server)
                with tracer.span("net.replay"):
                    _replay(network, [(CELL_HOST, iter(cell_trace)),
                                      (SERVER_HOST, iter(server_trace))])
                wall = _clock() - start
        except Stalled as exc:
            self.gate.stalled(f"round {index}", exc, offered, before,
                              self._snapshot())
            return None
        after = self._snapshot()

        def delta(key: str) -> int:
            return after[key] - before[key]

        gate = self.gate
        gate.offered(offered)
        tag = f"round {index}"
        gate.expect(f"{tag} uplink delivered", delta("server"), uplinks)
        gate.expect(f"{tag} downlink delivered", delta("cell"), downlinks)
        gate.expect(f"{tag} denied dropped", delta("lost"), denied)
        gate.expect(f"{tag} hydra reports", delta("reports"), 0)
        gate.expect(f"{tag} conservation",
                    delta("delivered") + delta("lost") + delta("nic_drops"),
                    offered)
        result.fingerprint["rounds"].append({
            "offered": offered,
            "delivered": delta("delivered"),
            "delivered_bytes": delta("bytes"),
            "last_arrival": repr(network.hosts[CELL_HOST].last_rx_time),
            "reports": delta("reports"),
            "hops": {name: after["hops"][name] - before["hops"][name]
                     for name in sorted(after["hops"])},
        })
        if tracer is not None:
            # Every replayed packet crosses leaf1 only.
            tracer.count("offered_hops", offered)
            tracer.count("net.packets_lost", delta("lost"))
        return offered, wall


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def make_workload(name: str, params: Dict[str, Any], seed: int, gate: Gate,
                  tracer: Optional[Tracer]):
    if name == "fabric_checked":
        return Fabric(params, True, seed, gate, tracer)
    if name == "fabric_bare":
        return Fabric(params, False, seed, gate, tracer)
    if name == "aether_churn":
        return AetherChurn(params, seed, gate, tracer)
    raise ValueError(f"unknown workload {name!r}")

