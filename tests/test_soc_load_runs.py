"""Whole-instruction load runs: ``resume`` against per-cycle ``step()``.

A proving ``resume`` executes runs of direct loads (first bytes
``0x00``-``0x0F``) one instruction per step.  Each test drives a twin
system through plain ``step()`` calls with the same corruption hooks and
checks that both end in the same snapshot, bus counters, flip tallies
and run result, having asked the hooks the same questions.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.control import OpClass
from repro.cpu.microcode import (
    DIRECT_LOAD_CYCLES,
    DIRECT_LOAD_END,
    MICROPROGRAMS,
)
from repro.isa.instructions import Mnemonic
from repro.soc.bus import BusDirection, TransactionKind
from repro.soc.system import CpuMemorySystem, RunResult


def pattern_hook(select: int, pattern: int, flip: int):
    """A pure hook: flip ``flip`` where ``previous ^ driven`` matches
    ``pattern`` under ``select``."""

    def decide(previous, driven, direction):
        if (previous ^ driven) & select == pattern:
            return driven ^ flip
        return driven

    return decide


class Recording:
    """Wraps a pure hook and records every decision it makes."""

    def __init__(self, decide):
        self.decide = decide
        self.decided = {}

    def __call__(self, previous, driven, direction):
        received = self.decide(previous, driven, direction)
        key = (previous, driven, direction)
        assert self.decided.setdefault(key, received) == received
        return received


def _twins(memory: bytes, pc: int, hooks, core: str = "fast"):
    systems = []
    for _ in range(2):
        system = CpuMemorySystem(core=core)
        system.memory.restore(memory)
        system.reset(pc)
        recorders = []
        for bus, spec in zip((system.address_bus, system.data_bus), hooks):
            hook = None if spec is None else Recording(
                spec if callable(spec) else pattern_hook(*spec)
            )
            bus.install_corruption_hook(hook)
            recorders.append(hook)
        systems.append((system, recorders))
    return systems


def _assert_twins_agree(memory: bytes, pc: int, budget: int, hooks,
                        core: str = "fast") -> CpuMemorySystem:
    (fast, fast_hooks), (slow, slow_hooks) = _twins(memory, pc, hooks, core)
    # The proof starts at the budget, so it checks at most once and the
    # run ends where per-cycle ticks end.
    result = fast.resume(max_cycles=budget, prove_hang_from=budget)
    while not slow.cpu.halted and slow.cycle < budget:
        slow.step()
    assert result == RunResult(
        halted=slow.cpu.halted, cycles=slow.cycle,
        instructions=slow.cpu.instruction_count,
    )
    assert fast.snapshot() == slow.snapshot()
    assert fast.state_key() == slow.state_key()
    for fast_bus, slow_bus in ((fast.address_bus, slow.address_bus),
                               (fast.data_bus, slow.data_bus)):
        assert fast_bus.counts() == slow_bus.counts()
        assert fast_bus.flips() == slow_bus.flips()
    for fast_hook, slow_hook in zip(fast_hooks, slow_hooks):
        if fast_hook is not None:
            assert fast_hook.decided == slow_hook.decided
    return fast


def _image(cells) -> bytes:
    memory = bytearray(4096)
    for address, value in cells.items():
        memory[address % 4096] = value
    return bytes(memory)


hook_specs = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 0xFFF), st.integers(0, 0xFFF), st.integers(1, 0xFFF)
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    pc=st.integers(0, 0xFFF),
    code=st.lists(
        st.one_of(st.integers(0, 0x0F), st.integers(0, 0x0F),
                  st.integers(0, 0xFF)),
        max_size=48,
    ),
    operands=st.dictionaries(st.integers(0, 0xFFF), st.integers(0, 0xFF),
                             max_size=24),
    budget=st.integers(1, 700),
    address_hook=hook_specs,
    data_hook=hook_specs,
)
# Zeroed memory from the top of the address space: the PC wraps.
@example(pc=0xFFA, code=[], operands={}, budget=403, address_hook=None,
         data_hook=None)
# A data hook that corrupts some fetched zero bytes into non-loads.
@example(pc=0x100, code=[0x00] * 32, operands={}, budget=300,
         address_hook=None, data_hook=(0x0F, 0x03, 0x90))
# An address hook that redirects operand addresses off page 5.
@example(pc=0x200, code=[0x05, 0x10] * 16, operands={0x510: 0x80, 0x518: 0},
         budget=301, address_hook=(0x300, 0x300, 0x008), data_hook=None)
def test_load_runs_match_per_cycle_ticks(
    pc, code, operands, budget, address_hook, data_hook
):
    cells = dict(operands)
    cells.update({pc + offset: byte for offset, byte in enumerate(code)})
    hooks = (
        address_hook,
        None if data_hook is None else (data_hook[0] & 0xFF,
                                        data_hook[1] & 0xFF,
                                        (data_hook[2] & 0xFF) or 1),
    )
    _assert_twins_agree(_image(cells), pc, budget, hooks)


def test_zero_memory_slides_in_load_runs_to_an_odd_budget():
    # 1003 cycles leave 3 after the last whole load: ticked per cycle.
    system = _assert_twins_agree(_image({}), 0, 1003, (None, None))
    # The first instruction after a restore runs per cycle.
    assert system.load_runs == 1
    assert system.load_run_instructions == 1003 // 8 - 1
    assert system.cycle == 1003


def test_every_page_and_offset_loads_its_operand():
    cells = {0x40 + 2 * page: page for page in range(16)}
    cells.update({0x40 + 2 * page + 1: 0x11 * page for page in range(16)})
    cells.update({(page << 8) | (0x11 * page): 0x80 | page
                  for page in range(16)})
    system = _assert_twins_agree(_image(cells), 0x40, 16 * 8, (None, None))
    assert system.load_run_instructions == 15
    assert system.cpu.ac == 0x8F


def test_corrupted_fetch_of_a_non_load_ends_the_run():
    # Zeroed memory but a 0x05 first byte at 0x30A: its fetch follows a
    # zero operand on the data bus and arrives as 0xF5, an implied
    # instruction.  The run stops before it; the per-cycle path redoes
    # that fetch and carries on.
    cells = {0x30A: 0x05}
    system = _assert_twins_agree(_image(cells), 0x300, 200,
                                 (None, (0xFF, 0x05, 0xF0)))
    assert system.load_runs >= 2
    assert system.load_run_instructions < (200 - 8) // 8


def test_corrupted_operand_address_loads_another_byte():
    cells = {0x20: 0x07, 0x21: 0x40, 0x22: 0x07, 0x23: 0x40, 0x740: 0x11,
             0x741: 0x22}

    def bump(previous, driven, direction):
        return driven + 1 if driven == 0x740 else driven

    system = _assert_twins_agree(_image(cells), 0x20, 16, (bump, None))
    assert system.load_run_instructions == 1  # the first ran per cycle
    assert system.cpu.ac == 0x22
    assert system.address_bus.counts()[1] == 2


@pytest.mark.parametrize("core", ["micro", "fast"])
def test_no_load_runs_without_a_proof_or_on_the_fsm_core(core):
    plain = CpuMemorySystem(core=core)
    plain.reset(0)
    plain.resume(max_cycles=400)
    assert plain.load_runs == 0
    proving = _assert_twins_agree(_image({}), 0, 400, (None, None), core)
    assert (proving.load_run_instructions > 0) == (core == "fast")


def test_observed_buses_tick_per_cycle():
    system = CpuMemorySystem(core="fast")
    seen = []
    system.data_bus.add_observer(seen.append)
    system.reset(0)
    system.resume(max_cycles=80, prove_hang_from=80)
    assert system.load_runs == 0
    assert len(seen) == 30


def test_direct_load_bytes_are_the_first_sixteen():
    for byte in range(256):
        decoded = MICROPROGRAMS[byte].decoded
        direct_load = (
            decoded.op_class is OpClass.MEMREF_READ
            and decoded.mnemonic is Mnemonic.LDA and not decoded.indirect
        )
        assert direct_load == (byte < DIRECT_LOAD_END)
        if direct_load:
            assert decoded.page == byte
            assert 2 + len(MICROPROGRAMS[byte].steps) == DIRECT_LOAD_CYCLES


def test_flips_split_glitches_from_delays():
    system = CpuMemorySystem()
    bus = system.data_bus
    bus.install_corruption_hook(lambda previous, driven, direction: 0b0110)
    bus.transfer(0b0011, BusDirection.MEM_TO_CPU, TransactionKind.FETCH, 1)
    # previous 0 -> driven 0b0011, received 0b0110: wire 0 switched and
    # was delayed, wire 2 was stable and glitched.
    assert bus.flips() == (1, 1)
