"""The sharded scenario-fleet runner.

``run_fleet`` partitions a difftest seed range into deterministic
round-robin shards (:mod:`.shard`), spawns one worker process per
shard, and streams per-scenario results back over per-worker pipes.
Each worker runs the full compile→deploy→dual-engine→compare pipeline
(:func:`repro.difftest.run_seed`) on its shard, accumulating into a
private metrics registry whose snapshot the parent merges
(:meth:`~repro.obs.metrics.MetricsRegistry.merge`) into the caller's —
so ``difftest --workers N`` reports fleet-wide counters identically to
the serial path.

Wire protocol: each worker incarnation owns one one-way
:func:`multiprocessing.Pipe`; ``Connection.send`` is synchronous (no
feeder thread), so once a worker starts executing a scenario its
``("start", seed)`` marker is already in the kernel buffer — the parent
can always attribute a crash to the in-flight seed, even after SIGKILL.
The parent multiplexes with :func:`multiprocessing.connection.wait`.

Robustness model (the part that makes fleets usable, not just fast):

* **per-scenario timeout** — a worker that sits on one scenario past
  ``FleetOptions.timeout_s`` is SIGKILLed; the hung seed is quarantined
  into a reproducer bundle (reusing :func:`repro.difftest.minimize.
  dump_reproducer`) and a fresh worker resumes the rest of the shard;
* **crashed-worker respawn** — a worker that dies mid-scenario
  (segfault, OOM kill, injected SIGKILL) is respawned on its remaining
  seeds; the in-flight seed is retried up to
  ``FleetOptions.max_seed_retries`` times, then quarantined;
* **graceful Ctrl-C** — KeyboardInterrupt terminates the workers,
  drains whatever results already reached the pipes, and returns a
  partial summary flagged ``interrupted=True``.

Determinism: scenarios are pure functions of their seed and shards
partition the seed range exactly, so for a fixed seed the mapping
``{seed: verdict}`` is identical for any worker count (completion
*order* varies; content does not).

``FaultPlan`` is the built-in fault injection used by the fault-path
tests and the CI crash smoke: it makes a worker SIGKILL itself (or hang
forever) when it reaches a chosen seed, exercising exactly the recovery
machinery above.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..difftest import (DiffFailure, DifftestSummary, SeedOutcome,
                        dump_reproducer, gen_scenario, run_seed)
from ..obs import MetricsRegistry, Observability, Tracer, \
    concat_jsonl_shards
from .shard import Shard, partition_seeds

__all__ = ["FaultPlan", "FleetOptions", "run_fleet"]

#: Name of the merged fleet trace inside ``FleetOptions.trace_dir``.
FLEET_TRACE_NAME = "fleet_trace.jsonl"


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for tests and smoke runs.

    A worker about to run a seed in ``crash_seeds`` SIGKILLs itself —
    every attempt, modelling a scenario that reliably kills its host
    process.  A seed in ``hang_seeds`` makes the worker sleep past any
    reasonable deadline, modelling a looping program."""

    crash_seeds: FrozenSet[int] = frozenset()
    hang_seeds: FrozenSet[int] = frozenset()
    hang_sleep_s: float = 3600.0


@dataclass
class FleetOptions:
    """Fleet-runner knobs (everything but the seed range itself)."""

    workers: int = 2
    inject_bug: bool = False
    #: Run the dataflow optimizer on every compiled scenario checker.
    optimize: bool = False
    #: Engine set each scenario cross-checks (None = the harness
    #: default, interp vs codegen).
    engines: Optional[Tuple[str, ...]] = None
    #: Per-scenario wall-clock budget; past it the worker is killed and
    #: the seed quarantined (no retry — a deterministic hang would only
    #: burn the budget again).
    timeout_s: float = 60.0
    #: How many times a seed whose worker *crashed* is retried on a
    #: fresh worker before being quarantined.
    max_seed_retries: int = 1
    #: Crash-loop backstop: respawns per shard that are not attributed
    #: to a specific seed (e.g. a worker dying at startup).
    max_respawns_per_shard: int = 4
    quarantine_dir: str = "difftest_failures"
    #: When set, each worker exports a per-shard JSONL lifecycle trace
    #: (one ``scenario`` event per seed) and the parent concatenates
    #: them into ``<trace_dir>/fleet_trace.jsonl``.
    trace_dir: Optional[str] = None
    fault: Optional[FaultPlan] = None
    poll_interval_s: float = 0.05


@dataclass(frozen=True)
class _WorkerConfig:
    """The pickle-safe bundle a worker process is configured with."""

    inject_bug: bool
    metrics: bool
    trace_path: Optional[str]
    fault: Optional[FaultPlan]
    optimize: bool = False
    engines: Optional[Tuple[str, ...]] = None


def _worker_main(shard_index: int, seeds: Tuple[int, ...], conn: Any,
                 cfg: _WorkerConfig) -> None:
    """One worker incarnation: run every seed of the shard, streaming
    ``("start", seed)`` / ``("result", outcome, dump)`` / ``("done",
    dump)`` over its pipe.

    Runs in a child process.  SIGINT is ignored so Ctrl-C is handled
    once, by the parent, which then terminates and drains the fleet.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    registry = MetricsRegistry() if cfg.metrics else None
    tracer = Tracer() if cfg.trace_path else None
    node = f"shard{shard_index}"
    for seed in seeds:
        conn.send(("start", seed))
        if cfg.fault is not None:
            if seed in cfg.fault.crash_seeds:
                os.kill(os.getpid(), signal.SIGKILL)
            if seed in cfg.fault.hang_seeds:
                time.sleep(cfg.fault.hang_sleep_s)
        outcome = run_seed(seed, inject_bug=cfg.inject_bug,
                           registry=registry, optimize=cfg.optimize,
                           engines=cfg.engines)
        if tracer is not None:
            tracer.emit("scenario", node, seed, verdict=outcome.verdict,
                        packets=outcome.packets_run)
            # Re-export after every scenario so a later kill loses at
            # most the in-flight seed's event, not the whole shard.
            tracer.export_jsonl(cfg.trace_path)
        dump = registry.to_dict() if registry is not None else None
        conn.send(("result", outcome, dump))
    conn.send(("done",
               registry.to_dict() if registry is not None else None))
    conn.close()


class _WorkerState:
    """Parent-side bookkeeping for one shard's (current) worker."""

    def __init__(self, shard: Shard):
        self.shard = shard
        self.pending: List[int] = list(shard.seeds)
        self.incarnation = 0
        self.proc: Optional[Any] = None
        self.conn: Optional[Any] = None         # parent end of the pipe
        self.inflight: Optional[int] = None
        self.deadline: Optional[float] = None
        self.last_dump: Optional[Dict[str, Any]] = None
        self.merged = False
        self.done = False
        self.respawns = 0               # not attributed to a seed
        self.retries: Dict[int, int] = {}
        self.trace_paths: List[str] = []

    def close_conn(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None


class _Fleet:
    """One ``run_fleet`` invocation's mutable state."""

    def __init__(self, seed: int, iters: int, options: FleetOptions,
                 obs: Optional[Observability],
                 progress: Optional[Callable[[str], None]]):
        self.options = options
        self.obs = obs
        self.progress = progress
        self.metrics = obs is not None and obs.registry.live
        self.ctx = multiprocessing.get_context()
        self.outcomes: Dict[int, SeedOutcome] = {}
        self.quarantined: List[Dict[str, Any]] = []
        self.respawns_total = 0
        self.interrupted = False
        self.total = iters
        self.states = [_WorkerState(shard)
                       for shard in partition_seeds(seed, iters,
                                                    options.workers)]

    # -- lifecycle -----------------------------------------------------

    def _say(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    def _spawn(self, st: _WorkerState) -> None:
        trace_path = None
        if self.options.trace_dir:
            os.makedirs(self.options.trace_dir, exist_ok=True)
            trace_path = os.path.join(
                self.options.trace_dir,
                f"shard{st.shard.index}.{st.incarnation}.jsonl")
            st.trace_paths.append(trace_path)
        cfg = _WorkerConfig(inject_bug=self.options.inject_bug,
                            metrics=self.metrics, trace_path=trace_path,
                            fault=self.options.fault,
                            optimize=self.options.optimize,
                            engines=self.options.engines)
        reader, writer = self.ctx.Pipe(duplex=False)
        st.conn = reader
        st.proc = self.ctx.Process(
            target=_worker_main,
            args=(st.shard.index, tuple(st.pending), writer, cfg),
            daemon=True)
        st.inflight = None
        st.deadline = None
        st.last_dump = None
        st.merged = False
        st.proc.start()
        # The parent must not hold the write end open, or worker death
        # would never surface as EOF on the read end.
        writer.close()

    def _respawn(self, st: _WorkerState) -> None:
        st.close_conn()
        if not st.pending:
            st.done = True
            return
        st.incarnation += 1
        self.respawns_total += 1
        self._spawn(st)

    def _merge_incarnation(self, st: _WorkerState) -> None:
        """Fold the incarnation's latest registry snapshot into the
        caller's registry, exactly once per incarnation."""
        if self.metrics and st.last_dump is not None and not st.merged:
            self.obs.registry.merge(st.last_dump)
        st.merged = True

    def _quarantine(self, st: _WorkerState, seed: int, reason: str,
                    message: str) -> None:
        scenario = gen_scenario(seed)
        failure = DiffFailure(kind=reason, message=message,
                              scenario=scenario)
        json_path, _ = dump_reproducer(scenario, failure,
                                       self.options.quarantine_dir,
                                       name=f"quarantine_seed{seed}")
        self.quarantined.append({"seed": seed, "reason": reason,
                                 "bundle": json_path})
        if seed in st.pending:
            st.pending.remove(seed)
        self._say(f"seed {seed}: quarantined ({reason}) -> {json_path}")

    # -- event handling ------------------------------------------------

    def _handle_message(self, st: _WorkerState, message: Tuple) -> None:
        kind = message[0]
        if kind == "start":
            st.inflight = message[1]
            st.deadline = time.monotonic() + self.options.timeout_s
        elif kind == "result":
            outcome, dump = message[1], message[2]
            self.outcomes[outcome.seed] = outcome
            st.inflight = None
            st.deadline = None
            st.last_dump = dump
            if outcome.seed in st.pending:
                st.pending.remove(outcome.seed)
            if outcome.failure is not None:
                self._say(f"seed {outcome.seed}: FAIL {outcome.failure}")
            elif len(self.outcomes) % 25 == 0:
                self._say(f"{len(self.outcomes)}/{self.total} "
                          "scenarios clean")
        elif kind == "done":
            if message[1] is not None:
                st.last_dump = message[1]
            self._merge_incarnation(st)
            st.done = True
            st.close_conn()

    def _handle_death(self, st: _WorkerState) -> None:
        """The worker exited without sending ``done`` — a crash."""
        self._merge_incarnation(st)
        seed = st.inflight
        if seed is None:
            # Died between scenarios (or at startup).  If nothing is
            # pending the shard actually finished; otherwise respawn,
            # bounded by the crash-loop backstop.
            if not st.pending:
                st.done = True
                st.close_conn()
                return
            st.respawns += 1
            if st.respawns > self.options.max_respawns_per_shard:
                self._say(f"shard {st.shard.index}: crash loop, "
                          f"quarantining {len(st.pending)} seed(s)")
                for pending_seed in list(st.pending):
                    self._quarantine(st, pending_seed, "worker_crash",
                                     "worker crash loop (not attributable "
                                     "to one seed)")
                st.done = True
                st.close_conn()
                return
            self._say(f"shard {st.shard.index}: worker died idle, "
                      "respawning")
            self._respawn(st)
            return
        retries = st.retries.get(seed, 0)
        if retries < self.options.max_seed_retries:
            st.retries[seed] = retries + 1
            self._say(f"shard {st.shard.index}: worker crashed on seed "
                      f"{seed}, retry {retries + 1}")
        else:
            self._quarantine(st, seed, "worker_crash",
                             f"worker killed while running seed {seed} "
                             f"({retries} retrie(s) exhausted)")
        self._respawn(st)

    def _handle_timeout(self, st: _WorkerState) -> None:
        seed = st.inflight
        st.proc.kill()
        st.proc.join(5)
        self._merge_incarnation(st)
        self._quarantine(st, seed, "timeout",
                         f"scenario exceeded the "
                         f"{self.options.timeout_s:.1f}s wall-clock "
                         "budget; worker killed")
        self._respawn(st)

    # -- main loop -----------------------------------------------------

    def run(self) -> None:
        for st in self.states:
            self._spawn(st)
        try:
            while not all(st.done for st in self.states):
                self._drain(timeout=self.options.poll_interval_s)
                now = time.monotonic()
                for st in self.states:
                    if st.done:
                        continue
                    if st.conn is None and st.proc.exitcode is not None:
                        # Pipe hit EOF and the process is gone: a crash.
                        self._handle_death(st)
                    elif (st.deadline is not None and now > st.deadline):
                        self._handle_timeout(st)
        except KeyboardInterrupt:
            self.interrupted = True
            self._say("interrupted — draining workers")
        finally:
            self._shutdown()

    def _drain(self, timeout: Optional[float]) -> int:
        """Receive every message currently available; returns how many
        were handled.  A pipe at EOF is closed here; the death verdict
        happens in the main loop once the process is observed dead."""
        conns = {st.conn: st for st in self.states
                 if not st.done and st.conn is not None}
        if not conns:
            if timeout:
                time.sleep(timeout)
            return 0
        handled = 0
        try:
            ready = _wait_connections(list(conns), timeout=timeout)
        except OSError:
            return 0
        for conn in ready:
            st = conns[conn]
            # Drain this connection completely: messages already sent
            # must be processed before any death verdict.
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    st.close_conn()
                    break
                self._handle_message(st, message)
                handled += 1
                if st.done:
                    break
        return handled

    def _shutdown(self) -> None:
        for st in self.states:
            if st.proc is not None and st.proc.is_alive():
                st.proc.terminate()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if not self._drain(timeout=0.05):
                if all(st.proc is None or not st.proc.is_alive()
                       for st in self.states):
                    break
        for st in self.states:
            if st.proc is None:
                continue
            st.proc.join(2)
            if st.proc.is_alive():
                st.proc.kill()
                st.proc.join(2)
            if not st.done:
                self._merge_incarnation(st)
            st.close_conn()

    # -- result assembly -----------------------------------------------

    def summary(self) -> DifftestSummary:
        summary = DifftestSummary(workers=self.options.workers,
                                  respawns=self.respawns_total,
                                  interrupted=self.interrupted)
        for seed in sorted(self.outcomes):
            summary.absorb(self.outcomes[seed])
        for record in sorted(self.quarantined, key=lambda r: r["seed"]):
            summary.quarantined.append(record)
            summary.verdicts[record["seed"]] = \
                f"quarantined:{record['reason']}"
        if self.options.trace_dir:
            paths = [p for st in self.states for p in st.trace_paths]
            concat_jsonl_shards(
                paths, os.path.join(self.options.trace_dir,
                                    FLEET_TRACE_NAME))
        return summary


def run_fleet(seed: int, iters: int, *,
              options: Optional[FleetOptions] = None,
              obs: Optional[Observability] = None,
              progress: Optional[Callable[[str], None]] = None,
              ) -> DifftestSummary:
    """Run a difftest campaign sharded across worker processes.

    The public entry points are :func:`repro.api.difftest` and
    ``python -m repro difftest --workers N``, which dispatch here via
    :func:`repro.difftest.run_difftest`.  Returns the same
    :class:`~repro.difftest.DifftestSummary` shape as the serial path,
    with the fleet fields (``workers``, ``quarantined``, ``respawns``,
    ``interrupted``) populated.
    """
    options = options or FleetOptions()
    if options.workers < 1:
        raise ValueError(f"workers must be >= 1, got {options.workers}")
    fleet = _Fleet(seed, iters, options, obs, progress)
    fleet.run()
    return fleet.summary()
