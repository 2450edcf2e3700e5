#!/usr/bin/env python
"""Codegen compile smoke: generated source must build for every program.

For the entire bundled property corpus plus every ``examples/*.indus``
file, compile the checker (both plain and through the dataflow
optimizer), stand up a codegen-engine switch — which emits, compiles,
and execs the generated module — and push a packet through it.  Any
program whose generated source fails to compile, or whose codegen
output diverges from the interp engine on the smoke packet, fails the
run.

Usage: ``PYTHONPATH=src python benchmarks/codegen_smoke.py``
"""

from __future__ import annotations

import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.compiler import compile_program, standalone_program  # noqa: E402
from repro.net.packet import ip, make_udp                       # noqa: E402
from repro.p4.bmv2 import Bmv2Switch                            # noqa: E402
from repro.properties import PROPERTIES, load_source            # noqa: E402


def _targets():
    for name in sorted(PROPERTIES):
        yield name, load_source(name)
    examples = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples")
    for path in sorted(glob.glob(os.path.join(examples, "*.indus"))):
        with open(path) as handle:
            yield os.path.basename(path), handle.read()


def _serialize(outputs):
    return [(port, [(h.htype.name, h.valid, h.to_bits())
                    for h in pkt.headers], pkt.payload_len)
            for port, pkt in outputs]


def main() -> int:
    failures = 0
    packet = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 7, 9, ttl=12)
    for name, source in _targets():
        for optimize in (False, True):
            label = name + (" [optimized]" if optimize else "")
            try:
                compiled = compile_program(source, name=name,
                                           optimize=optimize)
                program = standalone_program(compiled)
                engines = {}
                for engine in ("interp", "codegen"):
                    sw = Bmv2Switch(program, name="smoke", switch_id=1,
                                    engine=engine)
                    sw.insert_entry("fwd_table", [1],
                                    "fwd_set_egress", [2])
                    single = _serialize(sw.process(packet.copy(), 1))
                    if engine == "codegen":
                        assert sw._codegen.source, "empty generated source"
                    engines[engine] = single
                if engines["interp"] != engines["codegen"]:
                    raise AssertionError("codegen diverges from interp "
                                         "on the smoke packet")
            except Exception as exc:
                failures += 1
                print(f"FAIL {label}: {type(exc).__name__}: {exc}")
                continue
            print(f"ok   {label}")
    if failures:
        print(f"{failures} program(s) failed", file=sys.stderr)
        return 1
    print("codegen smoke: all programs build and agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
