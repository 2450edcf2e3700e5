"""Span tracing from outside the program, for the traced benchmark run.

The program is not instrumented.  Every span is recorded by a wrapper
that this module installs around a public method (class-level, so the
calls a constructor makes are seen too) or by the benchmark itself
around the calls it makes into a layer.  Wrappers are installed only
while a :class:`Tracer` is active, so untraced rounds of a traced run
execute the original methods.

A span is ``[name, start, end, parent]``.  The layer of a span is its
name up to the first dot (``p4.process.leaf`` belongs to ``p4``).  A
span's self time is its duration minus the durations of its children,
so the self times of all spans under a root span add up to the root's
duration exactly.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.p4.bmv2 import Bmv2Switch
from repro.runtime.deployment import HydraDeployment

_clock = time.perf_counter

#: Bmv2Switch table-entry writes, timed as ``p4.table_write`` spans.
_TABLE_WRITES = ("insert_entry", "insert_entries", "delete_entry",
                 "delete_entries")
#: HydraDeployment control-variable methods timed as ``runtime`` spans.
_CONTROLS = ("set_control", "dict_put", "dict_put_ranges", "set_add")


def _role(switch_name: str) -> str:
    return "spine" if switch_name.startswith("spine") else "leaf"


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self.gc_pauses: List[float] = []
        self.gc_full = 0
        self._gc_start: Optional[float] = None
        #: True while the wrappers are installed; the listeners count
        #: only then, so untraced rounds of a traced run add nothing.
        self.live = False

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, counter: Optional[str] = None
               ) -> Callable[[Callable], Callable]:
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if counter is not None:
                    tracer.count(counter)
                index = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(index)
            return wrapper
        return make

    def _process_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def process(switch: Bmv2Switch, packet: Any, port: int) -> Any:
            index = tracer.open("p4.process." + _role(switch.name))
            try:
                outputs = original(switch, packet, port)
            finally:
                tracer.close(index)
            tracer.count("p4.process_calls")
            tracer.count("hops." + _role(switch.name))
            if not outputs:
                tracer.count("p4.drops")
            return outputs
        return process

    def _batch_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def process_batch(switch: Bmv2Switch, items: Any) -> Any:
            index = tracer.open("p4.batch." + _role(switch.name))
            try:
                results = original(switch, items)
            finally:
                tracer.close(index)
            tracer.count("p4.batch_calls")
            tracer.count("p4.batch_packets", len(items))
            tracer.count("hops." + _role(switch.name), len(items))
            tracer.count("p4.drops", sum(1 for out in results if not out))
            return results
        return process_batch

    @contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        self._patch(Bmv2Switch, "process", self._process_wrapper)
        self._patch(Bmv2Switch, "process_batch", self._batch_wrapper)
        self._patch(Bmv2Switch, "set_default_action",
                    self._timed("p4.set_default_action",
                                "p4.set_default_action_calls"))
        for attr in _TABLE_WRITES:
            self._patch(Bmv2Switch, attr,
                        self._timed("p4.table_write",
                                    "p4.table_write_calls"))
        self._patch(HydraDeployment, "__init__",
                    self._timed("runtime.deploy"))
        for attr in _CONTROLS:
            self._patch(HydraDeployment, attr,
                        self._timed("runtime.control",
                                    "runtime.control_calls"))
        self.live = True
        try:
            yield self
        finally:
            self.live = False
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Time a module-level function the program calls by name (for
        example the compiler entry a testbed constructor calls); undone
        with the other wrappers when :meth:`active` exits."""
        self._patch(module, attr, self._timed(name))

    def listen(self, switches: Dict[str, Bmv2Switch],
               digest_names: Dict[str, str]) -> None:
        """Count reports per checker and control-plane changes through
        the switches' own listener hooks."""
        tracer = self

        def on_digest(message: Any) -> None:
            checker = digest_names.get(message.name)
            if checker is not None and tracer.live:
                tracer.count("runtime.reports." + checker)

        def on_config(_name: str) -> None:
            if tracer.live:
                tracer.count("p4.config_changes")

        for bmv2 in switches.values():
            bmv2.on_digest(on_digest)
            bmv2.on_config_change(on_config)

    # -- garbage collector -------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.live:
            return
        if phase == "start":
            self._gc_start = _clock()
        elif self._gc_start is not None:
            self.gc_pauses.append(_clock() - self._gc_start)
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_full += 1

    @contextmanager
    def gc_listener(self) -> Iterator[None]:
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- derived numbers ---------------------------------------------------------

    def total(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with ``prefix``
        (a span nested in another of the same prefix counts once)."""
        spans = self.spans
        out = 0.0
        for name, start, end, parent in spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and spans[parent][0].startswith(prefix)):
                out += end - start
        return out

    def self_times(self) -> Dict[str, float]:
        """Self time per layer over every recorded span."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start
                                                      - child_time[i])
        return layers

    def roots_wall(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        """Write every span as one JSON line:
        ``[name, start, end, parent_index]``."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
