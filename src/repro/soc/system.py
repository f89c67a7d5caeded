"""Wiring of the CPU-memory system used throughout the paper.

A :class:`CpuMemorySystem` owns the 12-bit unidirectional address bus, the
8-bit bidirectional data bus, the memory core, optional memory-mapped
peripheral cores, and a PARWAN-class CPU.  It implements the CPU's
:class:`~repro.cpu.datapath.BusPort`, so every CPU memory access becomes an
address-bus transaction followed by a data-bus transaction — the exact
transition stream the crosstalk error model corrupts.

The memory services the *received* address of each access: a corrupted
address-bus word makes reads return data from the wrong location and writes
land at the wrong location, which is how address-bus crosstalk errors
manifest in the paper (Section 3.2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.cpu.control import STATE_CATEGORIES
from repro.cpu.datapath import BusPort, Cpu, CpuSnapshot
from repro.cpu.microcode import (
    DIRECT_LOAD_CYCLES,
    DIRECT_LOAD_END,
    FastCpu,
    resolve_core,
)
from repro.isa.instructions import ADDR_BITS, DATA_BITS, MEMORY_SIZE
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.runtime import Observability
from repro.soc.bus import Bus, BusDirection, BusSnapshot, TransactionKind
from repro.soc.memory import Memory
from repro.soc.mmio import MMIORegion

_CPU_TO_MEM = BusDirection.CPU_TO_MEM
_MEM_TO_CPU = BusDirection.MEM_TO_CPU
_ADDRESS_MASK = (1 << ADDR_BITS) - 1
_DATA_MASK = (1 << DATA_BITS) - 1


@dataclass(frozen=True)
class RunResult:
    """Outcome of running the CPU until halt or a cycle budget.

    ``hang_proven`` is set when a proving run (``resume`` with
    ``prove_hang_from``) stopped early because the system revisited a
    full state it had already been in: the run provably never halts, so
    ``cycles`` is where the proof landed, not the budget.
    """

    halted: bool
    cycles: int
    instructions: int
    hang_proven: bool = False

    @property
    def timed_out(self) -> bool:
        """True when the run did not reach the halt convention.

        Either the cycle budget expired or the run was proven to loop
        forever (:attr:`hang_proven`); both are the same verdict.
        """
        return not self.halted


@dataclass(frozen=True)
class SystemSnapshot:
    """Complete restorable state of a :class:`CpuMemorySystem`.

    Everything the simulation depends on is captured: the clock, the CPU
    (mid-instruction latches included), the memory image, and both buses'
    held words and counters.  Restoring a snapshot and resuming therefore
    reproduces the original run cycle for cycle — the property the
    screened defect-simulation engine relies on to fast-forward defective
    replays to just before their first corrupted transaction.
    """

    cycle: int
    pending_address: int
    cpu: CpuSnapshot
    memory: bytes
    address_bus: BusSnapshot
    data_bus: BusSnapshot


class CpuMemorySystem(BusPort):
    """The demonstrator SoC: CPU + memory on shared address/data buses.

    Parameters
    ----------
    memory_size:
        Bytes of memory (default: the paper's 4K).
    addr_bits / data_bits:
        Bus widths; defaults match the paper (12-bit address, 8-bit data).
    mmio_regions:
        Optional memory-mapped cores overriding parts of the address space.
    core:
        CPU implementation: ``"micro"`` (the readable FSM reference),
        ``"fast"`` (the microprogram interpreter) or ``"auto"`` (honour
        ``REPRO_FAST_CORE``; defaults to fast).  The cores are
        bit-identical — see :mod:`repro.cpu.lockstep`.
    """

    def __init__(
        self,
        memory_size: int = MEMORY_SIZE,
        addr_bits: int = ADDR_BITS,
        data_bits: int = DATA_BITS,
        mmio_regions: Optional[Sequence[MMIORegion]] = None,
        core: str = "auto",
    ):
        self.address_bus = Bus("addr", addr_bits)
        self.data_bus = Bus("data", data_bits)
        self.memory = Memory(memory_size)
        self.mmio_regions: List[MMIORegion] = list(mmio_regions or [])
        self.core = resolve_core(core)
        self.cpu = FastCpu(self) if self.core == "fast" else Cpu(self)
        self.cycle = 0
        self._pending_address = 0
        # Native tallies of resume()'s whole-instruction load runs; like
        # the bus counters they only grow, so callers take deltas.
        self.load_runs = 0
        self.load_run_instructions = 0

    # -- BusPort implementation ------------------------------------------

    def address_phase(self, address: int, kind: TransactionKind) -> None:
        self._pending_address = self.address_bus.transfer(
            address, BusDirection.CPU_TO_MEM, kind, self.cycle
        )

    def read_phase(self, kind: TransactionKind) -> int:
        value = self._route_read(self._pending_address)
        return self.data_bus.transfer(
            value, BusDirection.MEM_TO_CPU, kind, self.cycle
        )

    def write_phase(self, value: int, kind: TransactionKind) -> None:
        received = self.data_bus.transfer(
            value, BusDirection.CPU_TO_MEM, kind, self.cycle
        )
        self._route_write(self._pending_address, received)

    # -- address decoding --------------------------------------------------

    def _find_region(self, address: int) -> Optional[MMIORegion]:
        for region in self.mmio_regions:
            if region.contains(address):
                return region
        return None

    def _route_read(self, address: int) -> int:
        region = self._find_region(address)
        if region is not None:
            return region.core.read(address - region.base)
        return self.memory.read(address % self.memory.size)

    def _route_write(self, address: int, value: int) -> None:
        region = self._find_region(address)
        if region is not None:
            region.core.write(address - region.base, value)
            return
        self.memory.write(address % self.memory.size, value)

    # -- program control ----------------------------------------------------

    def load_image(self, image: Mapping[int, int]) -> None:
        """Copy a sparse program image into memory."""
        self.memory.load_image(image)

    def reset(self, pc: int = 0) -> None:
        """Reset CPU, clock and bus state (memory content is preserved)."""
        self.cpu.reset(pc)
        self.cycle = 0
        self.address_bus.reset()
        self.data_bus.reset()

    def step(self) -> None:
        """Advance the system by one clock cycle."""
        self.cycle += 1
        self.cpu.tick()

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        """Capture the full system state for later :meth:`restore`.

        Only pure CPU+memory systems are checkpointable: memory-mapped
        peripheral cores keep private state the system cannot capture, so
        a system with ``mmio_regions`` refuses to snapshot rather than
        produce a checkpoint that silently resumes wrong.
        """
        if self.mmio_regions:
            raise ValueError(
                "cannot snapshot a system with MMIO regions: peripheral "
                "cores hold state outside the system's reach"
            )
        return SystemSnapshot(
            cycle=self.cycle,
            pending_address=self._pending_address,
            cpu=self.cpu.snapshot(),
            memory=self.memory.snapshot(),
            address_bus=self.address_bus.snapshot(),
            data_bus=self.data_bus.snapshot(),
        )

    def state_key(self) -> tuple:
        """Every field but memory that determines behaviour from here on.

        The CPU's :meth:`~repro.cpu.datapath.Cpu.state_key`, the pending
        (received) address and both buses' held words.  Taken at
        instruction boundaries, where both cores agree on it; together
        with the memory image it is the state a hang proof compares.
        """
        return (
            self.cpu.state_key(),
            self._pending_address,
            self.address_bus.value,
            self.data_bus.value,
        )

    def restore(self, snapshot: SystemSnapshot) -> None:
        """Rewind the system to a previously captured snapshot.

        Bus corruption hooks and observers are not part of snapshots —
        they survive a restore, so the caller can rewind to a golden
        checkpoint and then install a defect's hook for the resumed run.
        """
        self.cycle = snapshot.cycle
        self._pending_address = snapshot.pending_address
        self.cpu.restore(snapshot.cpu)
        self.memory.restore(snapshot.memory)
        self.address_bus.restore(snapshot.address_bus)
        self.data_bus.restore(snapshot.data_bus)

    # -- clocked execution ---------------------------------------------------

    def run(self, entry: int = 0, max_cycles: int = 1_000_000) -> RunResult:
        """Reset to ``entry`` and clock the CPU until it halts.

        ``max_cycles`` bounds runaway programs — a crosstalk defect can send
        the CPU into an endless loop, which the defect simulator must treat
        as a (detected) abnormal outcome rather than hang.

        When an observability session is active the run additionally
        rolls its aggregate counters (cycles, instructions, per-bus
        transaction stats; FSM-state occupancy in full detail) into the
        session registry.  With observability off, this method is the
        plain tight loop it always was.
        """
        self.reset(entry)
        return self._drive(obs_runtime.active(), max_cycles, "cpu.runs")

    def resume(
        self,
        max_cycles: int = 1_000_000,
        prove_hang_from: Optional[int] = None,
    ) -> RunResult:
        """Continue clocking without a reset.

        Used for cycle-level inspection and by the screened simulation
        engine to continue from a restored checkpoint.  Instrumented the
        same way as :meth:`run` (counter ``cpu.resumes`` instead of
        ``cpu.runs``); counter increments are deltas over this call, so
        a run split into resumes tallies the same totals as one run.

        With ``prove_hang_from`` set, the run also watches for a
        repeated full system state once the clock reaches that cycle
        and stops there with ``hang_proven`` set (see :meth:`_replay`).
        A proven run never halts, so its outcome equals the one the
        full budget would have reached; only ``cycles`` is smaller.
        Such a run also executes runs of direct loads a whole
        instruction at a time where it can (see :meth:`_load_run`),
        ending in the state per-cycle ticks reach; the native counters
        :attr:`load_runs` and :attr:`load_run_instructions` count them.
        Systems with MMIO regions refuse, as :meth:`snapshot` does.
        """
        return self._drive(
            obs_runtime.active(), max_cycles, "cpu.resumes", prove_hang_from
        )

    def _clock(self, max_cycles: int, tick: Callable[[], None]) -> RunResult:
        """Tick until halt or ``max_cycles``, the cycle count kept local."""
        cpu = self.cpu
        cycle = self.cycle
        while not cpu.halted and cycle < max_cycles:
            cycle += 1
            self.cycle = cycle
            tick()
        return RunResult(
            halted=cpu.halted,
            cycles=cycle,
            instructions=cpu.instruction_count,
        )

    def _advance(
        self,
        max_cycles: int,
        tick: Callable[[], None],
        prove_hang_from: Optional[int],
        load_runs: bool,
    ) -> RunResult:
        """Clock plainly, or (if asked to prove) through :meth:`_replay`."""
        if prove_hang_from is None:
            return self._clock(max_cycles, tick)
        return self._replay(max_cycles, tick, prove_hang_from, load_runs)

    def _replay(
        self,
        max_cycles: int,
        tick: Callable[[], None],
        prove_from: int,
        load_runs: bool,
    ) -> RunResult:
        """:meth:`_clock` with whole-instruction load runs and a hang proof.

        At each instruction boundary the replay first executes any run
        of direct loads whole (:meth:`_load_run`), then, once the clock
        has reached ``prove_from``, checks the resulting boundary state.
        The check is Brent's cycle finding: one saved :meth:`state_key`
        and memory copy, re-saved whenever the number of checks since
        the last save reaches the next power of two.  The system is
        deterministic and a defect acts only through the bus corruption
        hook, a pure function of each transition, so meeting the saved
        state again means the run loops forever.  The memory image is
        compared only when the register-level keys already match.
        Checked states follow each other by one fixed function (a
        per-cycle instruction, then a load run if one starts there), so
        a run that cycles is found.
        """
        if self.mmio_regions:
            raise ValueError(
                "cannot prove a hang with MMIO regions: peripheral cores "
                "hold state outside the system's reach"
            )
        cpu = self.cpu
        memory = self.memory
        cells = memory._cells
        state_key = self.state_key
        run = self._load_run if load_runs and self._loads_native() else None
        cycle = self.cycle
        count = cpu.instruction_count
        saved_key = None
        saved_memory = b""
        power = 1
        steps = 0
        while not cpu.halted and cycle < max_cycles:
            cycle += 1
            self.cycle = cycle
            tick()
            if cpu.instruction_count == count:
                continue
            if cpu.halted:
                break
            if (
                run is not None
                and cells[cpu.pc] < DIRECT_LOAD_END
                and max_cycles - cycle >= DIRECT_LOAD_CYCLES
                and run(max_cycles - cycle)
            ):
                cycle = self.cycle
            count = cpu.instruction_count
            if cycle < prove_from:
                continue
            key = state_key()
            if key == saved_key and memory.equals(saved_memory):
                return RunResult(
                    halted=False, cycles=cycle, instructions=count,
                    hang_proven=True,
                )
            steps += 1
            if steps == power:
                saved_key = key
                saved_memory = memory.snapshot()
                power *= 2
                steps = 0
        return RunResult(
            halted=cpu.halted, cycles=cycle, instructions=cpu.instruction_count
        )

    def _loads_native(self) -> bool:
        """True when :meth:`_load_run` may stand in for per-cycle ticks.

        It needs the fast core, unobserved buses (observers must see
        every transaction) and the native geometry its address and data
        masks assume: 12-bit addresses over a 4K memory, 8-bit data.
        """
        address_bus, data_bus = self.address_bus, self.data_bus
        return (
            isinstance(self.cpu, FastCpu)
            and not address_bus._observers
            and not data_bus._observers
            and address_bus.width == ADDR_BITS
            and data_bus.width == DATA_BITS
            and self.memory.size == MEMORY_SIZE
        )

    def _load_run(self, budget: int) -> int:
        """Execute the direct loads starting at this boundary whole.

        Each load (``LDA p:xx``, first byte below ``DIRECT_LOAD_END``)
        is computed as one step instead of eight ticks: the same six
        transactions in the same order, each through the installed
        corruption hooks, then one bulk commit of the CPU, both buses
        and the clock.  An LDA writes nothing, so the loads only read
        memory.  A fetch that receives any other first byte ends the
        run before that instruction; the per-cycle path then redoes
        that fetch, asking the pure hook the same question again.  The
        run also stops at a first byte that is not a direct load in
        memory, and commits only whole loads within ``budget`` cycles.
        Returns the number of loads committed.
        """
        cpu = self.cpu
        cells = self.memory._cells
        address_bus, data_bus = self.address_bus, self.data_bus
        address_hook = address_bus._corruption_hook
        data_hook = data_bus._corruption_hook
        address = address_bus.value  # the words the buses hold
        data = data_bus.value
        bad_addresses: List[Tuple[int, int, int]] = []
        bad_data: List[Tuple[int, int, int]] = []
        pc = cpu.pc
        limit = budget // DIRECT_LOAD_CYCLES
        count = 0
        start = first = second = effective = operand = received = 0
        while count < limit:
            # FETCH1: the first byte.
            at = pc
            if address_hook is not None:
                at = address_hook(address, pc, _CPU_TO_MEM) & _ADDRESS_MASK
            byte = cells[at]
            fetched = byte
            if data_hook is not None:
                fetched = data_hook(data, byte, _MEM_TO_CPU) & _DATA_MASK
            if fetched >= DIRECT_LOAD_END:
                break
            if at != pc:
                bad_addresses.append((address, pc, at))
            if fetched != byte:
                bad_data.append((data, byte, fetched))
            start, first = pc, fetched
            # FETCH2: the operand's low address byte.
            pc = (start + 1) & _ADDRESS_MASK
            at = pc
            if address_hook is not None:
                at = address_hook(start, pc, _CPU_TO_MEM) & _ADDRESS_MASK
            data = cells[at]
            second = data
            if data_hook is not None:
                second = data_hook(byte, data, _MEM_TO_CPU) & _DATA_MASK
            if at != pc:
                bad_addresses.append((start, pc, at))
            if second != data:
                bad_data.append((byte, data, second))
            # OPERAND: the load itself.
            effective = (first << 8) | second
            received = effective
            if address_hook is not None:
                received = (
                    address_hook(pc, effective, _CPU_TO_MEM) & _ADDRESS_MASK
                )
            if received != effective:
                bad_addresses.append((pc, effective, received))
            byte = data
            data = cells[received]
            operand = data
            if data_hook is not None:
                operand = data_hook(byte, data, _MEM_TO_CPU) & _DATA_MASK
            if operand != data:
                bad_data.append((byte, data, operand))
            address = effective
            pc = (pc + 1) & _ADDRESS_MASK
            count += 1
            if cells[pc] >= DIRECT_LOAD_END:
                break
        if count:
            cpu.commit_loads(count, pc, start, first, second, effective, operand)
            address_bus.commit_loads(count, address, bad_addresses)
            data_bus.commit_loads(count, data, bad_data)
            self._pending_address = received
            self.cycle += DIRECT_LOAD_CYCLES * count
            self.load_runs += 1
            self.load_run_instructions += count
        return count

    def _drive(
        self,
        obs: Optional[Observability],
        max_cycles: int,
        run_counter: str,
        prove_hang_from: Optional[int] = None,
    ) -> RunResult:
        """Clock the CPU until halt or ``max_cycles``; shared by run/resume.

        Metrics mode clocks through the same loops as the uninstrumented
        path: every metric is a before/after delta of native counters,
        tallied into counters resolved once per registry.
        """
        cpu = self.cpu
        if obs is None:
            return self._advance(max_cycles, cpu.tick, prove_hang_from, True)
        cycles_before = self.cycle
        instructions_before = cpu.instruction_count
        address_bus, data_bus = self.address_bus, self.data_bus
        before = address_bus.counts() + data_bus.counts()
        occupancy: dict = {}
        tick = cpu.tick
        if obs.full_detail:
            # Per-cycle only: occupancy counts every control state.
            tick = functools.partial(cpu.tick_counted, occupancy)
        result = self._advance(
            max_cycles, tick, prove_hang_from, not obs.full_detail
        )
        registry = obs.registry
        tally = registry.bound(_RunTally)
        registry.counter(run_counter).inc()
        tally.cycles.inc(self.cycle - cycles_before)
        tally.instructions.inc(cpu.instruction_count - instructions_before)
        if result.timed_out:
            registry.counter("cpu.timeouts").inc()
        tally.add_buses(address_bus.counts() + data_bus.counts(), before)
        for state, count in occupancy.items():
            registry.counter(f"cpu.state.{state.value}").inc(count)
            registry.counter(
                f"cpu.state_class.{STATE_CATEGORIES[state]}"
            ).inc(count)
        return result


#: Counter names aligned with ``address_bus.counts() + data_bus.counts()``.
_BUS_COUNTER_NAMES = tuple(
    name
    for bus in ("addr", "data")
    for name in (
        (f"bus.{bus}.transactions", f"bus.{bus}.corrupted")
        + tuple(f"bus.{bus}.kind.{kind.value}" for kind in TransactionKind)
    )
)
#: Slots of the per-bus totals, which every run reports even when zero.
_BUS_TOTALS = (0, 1, 2 + len(TransactionKind), 3 + len(TransactionKind))


class _RunTally:
    """One registry's per-bus run counters, resolved on first use.

    Built once per registry (:meth:`MetricsRegistry.bound`).  The
    per-kind counters are created only when a run first moves them, so
    reports list exactly the metrics they did when every run looked
    them up by name.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.cycles = registry.counter("cpu.cycles")
        self.instructions = registry.counter("cpu.instructions")
        self._buses: List[Optional[Counter]] = [None] * len(_BUS_COUNTER_NAMES)
        for slot in _BUS_TOTALS:
            self._buses[slot] = registry.counter(_BUS_COUNTER_NAMES[slot])

    def add_buses(self, now: Tuple[int, ...], earlier: Tuple[int, ...]) -> None:
        """Add both buses' native counter deltas over one run."""
        counters = self._buses
        for slot, after in enumerate(now):
            delta = after - earlier[slot]
            if delta:
                counter = counters[slot]
                if counter is None:
                    counter = counters[slot] = self.registry.counter(
                        _BUS_COUNTER_NAMES[slot]
                    )
                # Native counters only grow within a run: no inc() check.
                counter.value += delta
