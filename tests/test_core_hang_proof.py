"""Hang proofs: a replay that revisits a full system state never halts.

The screened engine stops a defective replay as soon as Brent's cycle
finding sees an instruction-boundary state (CPU key, bus words, memory)
come round again.  Under test:

* the proving loop itself on hand-built programs: a jump back to itself
  is proven within Brent's bound, a loop that bumps a memory counter is
  not proven before its full state really repeats, and halting runs are
  untouched;
* soundness against :class:`ExactEngine`, which never takes the proof:
  every proven hang, and every defect deduped onto a replay class that
  was recorded from a run cut short by a proof, times out there too;
* outcome equality on the E4 per-line campaign and the E5 data-bus
  campaign, with at least one proof on each so the path really runs;
* the state key agrees between the FSM core and the fast core.
"""

from __future__ import annotations

import pytest

from repro import default_bus_setup
from repro.core.coverage import DefectSimulator
from repro.core.engine import ExactEngine, ScreenedEngine
from repro.core.program_builder import SelfTestProgramBuilder
from repro.cpu.lockstep import LockstepDivergence, run_lockstep
from repro.cpu.microcode import FastCpu
from repro.isa.assembler import assemble
from repro.obs import runtime as obs_runtime
from repro.soc.mmio import MMIORegion, RegisterCore
from repro.soc.system import CpuMemorySystem


def _system(source: str, entry: int = 0x10, core: str = "auto"):
    system = CpuMemorySystem(core=core)
    system.load_image(assemble(source).image)
    system.reset(entry)
    return system


def _counter(obs, name: str) -> int:
    entry = obs.registry.snapshot().get(name)
    return entry["value"] if entry else 0


# ---------------------------------------------------------------------------
# The proving loop
# ---------------------------------------------------------------------------

#: ``tail`` straight-line instructions, then a loop of ``period``
#: instructions that never reaches the halt convention.  A literal
#: ``jmp`` to its own first byte *is* the halt convention, so the
#: self-loops here are a taken branch to itself and a pair of jumps.
SELF_LOOPS = {
    "branch_to_self": (
        """
        .org 0x10
        lda zero
spin:   bra_z spin
zero:   .byte 0
        """,
        1,
        1,
    ),
    "jump_pair": (
        """
        .org 0x10
        nop
        nop
        nop
        nop
        nop
ping:   jmp pong
pong:   jmp ping
        """,
        5,
        2,
    ),
}


@pytest.mark.parametrize("core", ["micro", "fast"])
@pytest.mark.parametrize("name", sorted(SELF_LOOPS))
def test_jump_to_self_is_proven_within_brents_bound(name, core):
    source, tail, period = SELF_LOOPS[name]
    system = _system(source, core=core)
    result = system.resume(max_cycles=100_000, prove_hang_from=0)
    assert result.hang_proven
    assert result.timed_out and not result.halted
    # Brent re-saves at boundaries 1, 3, 7, ...: the proof lands within
    # one period after the first save that is both inside the loop and
    # has a window of at least one period.
    assert result.instructions <= 2 * max(tail + 1, period) + period
    assert result.cycles == system.cycle < 100_000


COUNTER_LOOP = """
        .org 0x10
loop:   lda count
        add one
        sta count
        lda zero
        jmp loop
count:  .byte 0
one:    .byte 1
zero:   .byte 0
"""


def test_memory_counter_loop_is_not_proven_before_its_state_repeats():
    # Every iteration ends in the same registers, latches and bus words;
    # only the counter in memory differs, and it comes round after 256
    # iterations.  The bytewise memory compare is what keeps the proof
    # from firing early.
    keys = []
    system = _system(COUNTER_LOOP)
    for _ in range(3):
        done = system.cpu.instruction_count + 5
        while system.cpu.instruction_count < done:
            system.step()
        keys.append(system.state_key())
    assert keys[1] == keys[2]

    per_iteration = _system(COUNTER_LOOP).resume(max_cycles=1_000)
    cycles_per_iteration = per_iteration.cycles * 5 // per_iteration.instructions
    short = _system(COUNTER_LOOP).resume(
        max_cycles=200 * cycles_per_iteration, prove_hang_from=0
    )
    assert not short.hang_proven and short.timed_out

    proven = _system(COUNTER_LOOP).resume(
        max_cycles=10_000_000, prove_hang_from=0
    )
    assert proven.hang_proven
    assert proven.instructions >= 256 * 5


def test_halting_run_is_unchanged_by_the_proof():
    source = ".org 0x10\nlda val\nsta out\nhalt: jmp halt\nval: .byte 7\nout: .byte 0"
    plain = _system(source).resume()
    proving = _system(source)
    result = proving.resume(prove_hang_from=0)
    assert result == plain
    assert not result.hang_proven


def test_proof_waits_for_its_start_cycle():
    source = SELF_LOOPS["jump_pair"][0]
    system = _system(source)
    result = system.resume(max_cycles=100_000, prove_hang_from=5_000)
    assert result.hang_proven
    assert 5_000 <= result.cycles < 5_100


def test_proof_refuses_mmio_systems():
    system = CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=8,
                                 core=RegisterCore(register_count=8))]
    )
    system.load_image(assemble(SELF_LOOPS["jump_pair"][0]).image)
    system.reset(0x10)
    with pytest.raises(ValueError):
        system.resume(max_cycles=1_000, prove_hang_from=0)


# ---------------------------------------------------------------------------
# The state key across cores
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def builder():
    return SelfTestProgramBuilder()


def test_state_key_agrees_across_cores_in_lockstep(builder):
    program = builder.build_address_bus_program()

    def stuck_bit(previous, driven, direction):
        return driven | 0x004

    # The lockstep harness compares state keys at every boundary; a
    # corrupted run exercises hung paths, the loops the other ones.
    run_lockstep(program.image, entry=program.entry)
    run_lockstep(program.image, entry=program.entry, max_cycles=20_000,
                 hook=stuck_bit)
    for source, _, _ in SELF_LOOPS.values():
        report = run_lockstep(assemble(source).image, entry=0x10,
                              max_cycles=500)
        assert not report.halted
    run_lockstep(assemble(COUNTER_LOOP).image, entry=0x10, max_cycles=2_000)


def test_lockstep_reports_a_state_key_divergence(monkeypatch):
    original = FastCpu.state_key

    def skewed(cpu):
        key = original(cpu)
        return (key[0] ^ 1,) + key[1:]

    monkeypatch.setattr(FastCpu, "state_key", skewed)
    with pytest.raises(LockstepDivergence, match="state key"):
        run_lockstep(assemble(SELF_LOOPS["jump_pair"][0]).image, entry=0x10,
                     max_cycles=100)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def test_screened_equals_exact_on_e4_per_line(builder):
    # Seed 3 at 40 defects: line 7's program and the full program both
    # prove hangs.
    setup = default_bus_setup(12, defect_count=40, seed=3)
    programs = [builder.build_address_bus_program()]
    for line in range(12):
        faults = [f for f in builder.address_faults() if f.victim == line]
        if faults:
            programs.append(builder.build_address_bus_program(faults))
    proofs = []
    for program in programs:
        exact = DefectSimulator(
            program, setup.params, setup.calibration, bus="addr",
        ).run_library(setup.library)
        with obs_runtime.session() as obs:
            screened = DefectSimulator(
                program, setup.params, setup.calibration, bus="addr",
                engine="screened",
            ).run_library(setup.library)
        assert screened == exact
        proofs.append(_counter(obs, "coverage.engine.hang_proven"))
    assert proofs[0] >= 1, "the full program proves hangs"
    assert sum(proofs[1:]) >= 1, "a per-line program proves a hang"


@pytest.mark.parametrize("core", ["micro", "fast"])
def test_screened_equals_exact_on_e5(builder, core):
    setup = default_bus_setup(8, defect_count=40, seed=2001)
    program = builder.build_data_bus_program()
    exact = DefectSimulator(
        program, setup.params, setup.calibration, bus="data", core=core,
    ).run_library(setup.library)
    with obs_runtime.session() as obs:
        screened = DefectSimulator(
            program, setup.params, setup.calibration, bus="data",
            engine="screened", core=core,
        ).run_library(setup.library)
    assert screened == exact
    assert _counter(obs, "coverage.engine.hang_proven") >= 1
    # Whole-instruction load runs need the fast core.
    loads = _counter(obs, "coverage.engine.load_run_instructions")
    assert (loads >= 1) if core == "fast" else (loads == 0)


def test_exact_engine_never_proves(builder):
    setup = default_bus_setup(8, defect_count=40, seed=2001)
    program = builder.build_data_bus_program()
    with obs_runtime.session() as obs:
        outcomes = DefectSimulator(
            program, setup.params, setup.calibration, bus="data",
        ).run_library(setup.library)
    assert any(outcome.timed_out for outcome in outcomes)
    assert _counter(obs, "coverage.engine.hang_proven") == 0
    assert _counter(obs, "coverage.engine.hang_cycles_saved") == 0
    assert _counter(obs, "coverage.engine.load_runs") == 0


@pytest.mark.parametrize("bus,width", [("addr", 12), ("data", 8)])
def test_proven_hangs_and_their_dedups_time_out_exactly(builder, bus, width):
    setup = default_bus_setup(width, defect_count=100, seed=2001)
    program = (
        builder.build_address_bus_program() if bus == "addr"
        else builder.build_data_bus_program()
    )
    exact = ExactEngine(program, setup.params, setup.calibration, bus)
    screened = ScreenedEngine(program, setup.params, setup.calibration, bus)
    screened.prepare(setup.library)

    matched = []
    find = screened._matching_class

    def recording(classes, compiled):
        known = find(classes, compiled)
        matched.append(known)
        return known

    screened._matching_class = recording
    cut_short = set()
    proven = deduped_onto_cut_short = 0
    with obs_runtime.session() as obs:
        for defect in setup.library:
            classes_before = {
                id(known)
                for group in screened._replay_classes.values()
                for known in group
            }
            proofs_before = _counter(obs, "coverage.engine.hang_proven")
            del matched[:]
            check = screened.check(defect)
            if _counter(obs, "coverage.engine.hang_proven") > proofs_before:
                proven += 1
                assert exact.check(defect) == check
                assert check.timed_out
                cut_short.update(
                    id(known)
                    for group in screened._replay_classes.values()
                    for known in group
                    if id(known) not in classes_before
                )
            elif matched and matched[0] is not None \
                    and id(matched[0]) in cut_short:
                deduped_onto_cut_short += 1
                assert exact.check(defect) == check
                assert check.timed_out
    assert proven >= 1
    assert deduped_onto_cut_short >= 1
