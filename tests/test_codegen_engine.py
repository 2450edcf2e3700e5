"""Codegen engine tests: generated source, batching, recompile hooks.

The codegen engine (:mod:`repro.p4.codegen`) compiles each pipeline to
one straight-line generated-source function, specializing on
control-plane facts (assumed action sets, baked default bindings) and
on observability (instrumentation is emitted or absent at build time).
Three-engine byte-equality over the corpus lives in
``tests/test_engine_differential.py``; this suite pins the engine's own
mechanics — batch-vs-single equality, recompilation exactly when a
baked fact is invalidated, obs specialization, and the ``dump-src`` /
``repro.api.generated_source`` surface.
"""

import random

import pytest

import repro
from repro.cli import main as cli_main
from repro.compiler import compile_program, standalone_program
from repro.obs import Observability
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import load_source
from tests.test_engine_differential import (build_pair, random_packet,
                                            serialize_outputs)

BATCH_PROPS = ("loops", "valley_free", "stateful_firewall",
               "source_routing_validation", "load_balance_arrays")


def build_switch(name="loops", engine="codegen", optimize=False,
                 obs=None, entries=True):
    compiled = compile_program(load_source(name), name=name,
                               optimize=optimize)
    program = standalone_program(compiled)
    sw = Bmv2Switch(program, name="s1", switch_id=7, engine=engine,
                    obs=obs)
    if entries:
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        for port in (1, 2):
            sw.insert_entry(compiled.inject_table, [port],
                            compiled.mark_first_action)
            sw.insert_entry(compiled.strip_table, [port],
                            compiled.mark_last_action)
    return sw


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_PROPS)
def test_batch_matches_single(name):
    """process_batch on one switch must equal sequential process calls
    on an identically configured twin — including register effects."""
    single = build_switch(name)
    batched = build_switch(name)
    rng = random.Random(hash(name) & 0xFFFF)
    items = [(random_packet(rng), 1) for _ in range(25)]
    expected = [serialize_outputs(single.process(p.copy(), port))
                for p, port in items]
    got = [serialize_outputs(out) for out in batched.process_batch(items)]
    assert got == expected
    assert single.registers == batched.registers
    assert single.packets_processed == batched.packets_processed
    assert single.packets_dropped == batched.packets_dropped


@pytest.mark.parametrize("name", ("loops", "valley_free"))
def test_optimized_pipeline_parity(name):
    """The dataflow-optimized IR through codegen still matches the
    unoptimized interpreter packet for packet."""
    switches = [build_switch(name, engine="interp"),
                build_switch(name, optimize=True)]
    rng = random.Random(99)
    for packet in (random_packet(rng) for _ in range(20)):
        outs = [serialize_outputs(sw.process(packet, 1))
                for sw in switches]
        assert outs[0] == outs[1]
    assert switches[0].registers == switches[1].registers


# ---------------------------------------------------------------------------
# Recompilation: baked facts are invalidated exactly when they change
# ---------------------------------------------------------------------------

def test_recompile_on_undeclared_action_install():
    """fwd_table's assumed set is its declared actions plus its default
    (fwd_set_egress, fwd_drop); installing an entry bound to any other
    program action violates that contract and must rebuild the module —
    after which the entry dispatches correctly."""
    sw = build_switch()
    interp = build_switch(engine="interp")
    assert sw._codegen._assumed["fwd_table"] == {"fwd_set_egress",
                                             "fwd_drop"}
    before = sw._codegen.recompiles
    for s in (sw, interp):
        s.insert_entry("fwd_table", [3], "ih_mark_first_hop", [])
    assert sw._codegen.recompiles == before + 1
    rng = random.Random(5)
    for port in (1, 3):
        for packet in (random_packet(rng) for _ in range(5)):
            assert serialize_outputs(sw.process(packet, port)) == \
                serialize_outputs(interp.process(packet, port))


def test_no_recompile_for_declared_action_churn():
    sw = build_switch()
    before = sw._codegen.recompiles
    handle = sw.insert_entry("fwd_table", [4], "fwd_set_egress", [9])
    sw.delete_entry("fwd_table", handle)
    sw.clear_table("fwd_table")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    assert sw._codegen.recompiles == before


def test_default_change_recompiles_only_on_real_change():
    """The miss-path binding is baked into the generated source, so a
    genuine default swap must rebuild; restating the compiled-in
    default must not."""
    sw = build_switch()
    interp = build_switch(engine="interp")
    baked = sw._codegen._defaults_snapshot["fwd_table"]
    before = sw._codegen.recompiles
    sw.set_default_action("fwd_table", baked[0], list(baked[1]))
    assert sw._codegen.recompiles == before  # no-op restatement
    for s in (sw, interp):
        s.set_default_action("fwd_table", "fwd_set_egress", [7])
    assert sw._codegen.recompiles == before + 1
    rng = random.Random(6)
    for packet in (random_packet(rng) for _ in range(5)):
        # Port 5 has no entry: the packet takes the new miss path.
        assert serialize_outputs(sw.process(packet, 5)) == \
            serialize_outputs(interp.process(packet, 5))


# ---------------------------------------------------------------------------
# Observability is a compile-time specialization
# ---------------------------------------------------------------------------

def test_null_obs_leaves_no_residue():
    source = build_switch()._codegen.source
    assert "def _process(" in source
    assert "_process_batch" not in source
    assert "TR." not in source      # no tracer calls
    assert ".inc()" not in source   # no metrics counters


def test_live_obs_instruments_and_matches_interp():
    traffic = [(random_packet(random.Random(11)), 1) for _ in range(10)]
    dumps = {}
    for engine in ("interp", "codegen"):
        obs = Observability.enabled()
        sw = build_switch(engine=engine, obs=obs)
        for packet, port in traffic:
            sw.process(packet.copy(), port)
        dumps[engine] = obs.registry.to_dict()
    codegen_sw = build_switch(obs=Observability.enabled())
    assert "TR." in codegen_sw._codegen.source
    lookups = dumps["codegen"]["table_lookups_total"]["series"]
    assert sum(s["value"] for s in lookups) > 0
    # Packet-path metrics agree; only the engine-specific build/latency
    # instruments (interp_ns vs codegen_ns, phase timings) differ.
    skip = {"interp_ns_per_packet", "codegen_ns_per_packet",
            "phase_seconds"}
    # Codegen registers each apply site's hit/miss series when it
    # compiles, so it also carries zero-valued series the interpreter
    # never creates; compare the series that counted something.
    def counted(metric):
        return {**metric, "series": [
            s for s in metric["series"]
            if s.get("value", s.get("count")) != 0]}

    shared = set(dumps["interp"]) & set(dumps["codegen"]) - skip
    assert "switch_packets_total" in shared
    assert "table_lookups_total" in shared
    for metric in shared:
        assert (counted(dumps["codegen"][metric])
                == counted(dumps["interp"][metric])), metric


def test_attach_observability_rebuilds():
    """Attaching a live handle swaps in a freshly built, instrumented
    engine; detaching (NULL_OBS) restores the residue-free source."""
    from repro.obs import NULL_OBS
    sw = build_switch()
    plain = sw._codegen
    assert ".inc()" not in plain.source
    sw.attach_observability(Observability.enabled())
    assert sw._codegen is not plain
    assert ".inc()" in sw._codegen.source
    sw.attach_observability(NULL_OBS)
    assert sw._codegen.source == plain.source


# ---------------------------------------------------------------------------
# dump-src / generated_source surface
# ---------------------------------------------------------------------------

def test_generated_source_api_accepts_every_program_form(tmp_path):
    by_name = repro.api.generated_source("loops")
    assert "def _process(" in by_name and "_process_batch" not in by_name
    compiled = repro.compile_indus("loops")
    assert repro.api.generated_source(compiled) == by_name

    path = tmp_path / "prog.indus"
    path.write_text(load_source("loops"))
    assert "def _process(" in repro.api.generated_source(str(path))

    by_seed = repro.api.generated_source(3)  # difftest seed
    assert "def _process(" in by_seed


def test_dump_src_cli(capsys):
    code = cli_main(["dump-src", "loops"])
    out = capsys.readouterr().out
    assert code == 0
    assert "def _process(" in out

    code = cli_main(["dump-src", "3", "--optimize"])
    out = capsys.readouterr().out
    assert code == 0
    assert "def _process(" in out
