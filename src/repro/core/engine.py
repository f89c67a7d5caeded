"""Two-tier defect-simulation engines: exact replay and screen-then-replay.

The defect simulator's contract is per-defect :class:`DetectionOutcome`
values; *how* a defect is judged is an engine concern:

:class:`ExactEngine`
    One full cycle-accurate replay per defect with the crosstalk error
    model installed on the bus under test — the original behavior of
    :class:`~repro.core.coverage.DefectSimulator`.

:class:`ScreenedEngine`
    Exploits the screening invariant (see :mod:`repro.xtalk.screen`):
    the system is deterministic and the error model is a pure function
    of each bus transition, so a defective run is cycle-identical to the
    golden run up to its first corrupted transaction.  The engine

    1. captures the golden run **once** with the full transaction trace
       of the bus under test and periodic :class:`SystemSnapshot`
       checkpoints,
    2. screens the whole library against that trace in one pass over the
       compiled decision tables (:mod:`repro.xtalk.kernel`),
    3. skips simulation entirely for defects whose trace is clean
       (provably undetected — outcome identical to fault-free),
    4. *dedups* the rest by replay behavior: every real replay records
       the ``transition -> received`` decisions its run actually used,
       kept as two key masks ("must corrupt", "must not corrupt"); a
       later defect whose corrupting keys contain the first and miss the
       second agrees with the recorded run on every one of those
       transitions, so it provably reproduces that run cycle for cycle
       and its outcome is reused without simulating (random capacitance
       perturbations cluster heavily — thousands of corrupting defects
       typically collapse to a few dozen behaviors),
    5. replays the genuinely new behaviors from the last golden
       checkpoint before their first corrupted transaction — the replay
       only pays for the suffix,
    6. stops a replay that runs past the golden cycle count as soon
       as it revisits a full system state (Brent's cycle finding over
       instruction-boundary states, see
       :meth:`~repro.soc.system.CpuMemorySystem.resume`): such a run
       provably never halts, and every run that does not halt gets the
       same verdict, so the rest of the cycle budget is skipped,
    7. and executes runs of direct loads in a replay a whole instruction
       at a time: derailed CPUs slide through zero-filled memory, which
       decodes as ``LDA 0:00``.  Every transaction still goes through the
       same hook in the same order, and only whole loads within the
       budget are committed, so the run ends in the state per-cycle
       ticks reach.

    The outcomes are bit-identical to :class:`ExactEngine` by
    construction: clean defects cannot diverge, a deduped defect's run
    is forced through the same decisions as the recorded run it matched
    (the bus hook is the *only* path a defect influences the system
    through), a resumed replay re-executes every bus transaction from a
    state the defective run provably shares, and a proven hang is a run that
    cannot halt.  A replay class recorded from a run cut short by the
    proof stays sound: a defect agreeing with its recorded decisions
    walks the same states into the same cycle.  :class:`ExactEngine`
    never takes the proof, so it stays the independent oracle.

Engines do not do their own per-defect observability — the simulator
remains the instrumented facade — but the screened engine counts its
triage decisions (``coverage.engine.screened_clean`` /
``coverage.engine.replay_deduped`` / ``coverage.engine.replayed`` /
``coverage.engine.checkpoint_resumed`` / ``coverage.engine.hang_proven``,
plus the budget cycles the proofs skipped in
``coverage.engine.hang_cycles_saved`` and the load runs in
``coverage.engine.load_runs`` / ``coverage.engine.load_run_instructions``)
through the null-safe registry so campaign reports can show how much
work screening saved.  Its ``xtalk.model.*`` tallies are the hooked
bus's native counter deltas over each replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.program_builder import SelfTestProgram
from repro.core.signature import (
    GoldenReference,
    ResponseCheck,
    build_base_image,
    check_response,
    make_system,
)
from repro.obs import runtime as obs_runtime
from repro.soc.bus import Bus, BusTransaction
from repro.soc.system import CpuMemorySystem, SystemSnapshot
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import Defect
from repro.xtalk.error_model import MODEL_STATS, CrosstalkErrorModel
from repro.xtalk.kernel import (
    CompiledDefect,
    KeySpace,
    compile_defect,
    compile_library,
)
from repro.xtalk.params import ElectricalParams
from repro.xtalk.screen import ScreenVerdict, TraceScreen

ENGINES = ("exact", "screened")

#: Bounds on the automatic checkpoint spacing (cycles).  The golden runs
#: of per-line programs are well under 100 cycles, so the lower clamp
#: keeps even those resumable near their first corruption; the upper
#: clamp bounds snapshot memory for long programs.
MIN_CHECKPOINT_INTERVAL = 4
MAX_CHECKPOINT_INTERVAL = 256
CHECKPOINT_DENSITY = 64  # target ~this many checkpoints per golden run


def _bus_of(system: CpuMemorySystem, bus: str) -> Bus:
    return system.address_bus if bus == "addr" else system.data_bus


@dataclass(frozen=True)
class Checkpoint:
    """A golden-run :class:`SystemSnapshot` tagged with its cycle."""

    cycle: int
    snapshot: SystemSnapshot


@dataclass(frozen=True)
class GoldenCapture:
    """One golden run's reference, bus trace, and checkpoint series."""

    golden: GoldenReference
    trace: List[BusTransaction]
    checkpoints: List[Checkpoint]


def auto_checkpoint_interval(golden_cycles: int) -> int:
    """Checkpoint spacing targeting ~:data:`CHECKPOINT_DENSITY` snapshots."""
    return max(
        MIN_CHECKPOINT_INTERVAL,
        min(MAX_CHECKPOINT_INTERVAL, golden_cycles // CHECKPOINT_DENSITY),
    )


def _count_golden_cycles(cycles: int) -> None:
    """Tally fault-free simulation work (``coverage.engine.golden_cycles``).

    Warm-cache engine builds skip golden simulation entirely, which is
    exactly what this counter staying at zero proves.
    """
    obs_runtime.registry().counter("coverage.engine.golden_cycles").inc(cycles)


def capture_golden_with_trace(
    program: SelfTestProgram,
    bus: str,
    interval: Optional[int] = None,
    base_image: Optional[bytes] = None,
    core: str = "auto",
) -> GoldenCapture:
    """Run ``program`` fault-free, recording trace and checkpoints.

    The run is step-for-step the one :meth:`CpuMemorySystem.run`
    performs (reset to the program entry, clock until halt), so the
    captured trace and checkpoints are exactly what every defective
    replay reproduces up to its first corruption.

    ``interval`` is the checkpoint spacing in cycles;
    ``None`` derives it from the golden cycle count via
    :func:`auto_checkpoint_interval` (which costs one extra fault-free
    run — negligible against a library-sized campaign).
    """
    if interval is None:
        probe = make_system(program, base_image, core=core)
        result = probe.run(entry=program.entry, max_cycles=10_000_000)
        if not result.halted:
            raise RuntimeError("golden run did not reach the halt convention")
        _count_golden_cycles(result.cycles)
        interval = auto_checkpoint_interval(result.cycles)
    if interval <= 0:
        raise ValueError("checkpoint interval must be positive")

    system = make_system(program, base_image, core=core)
    trace: List[BusTransaction] = []
    _bus_of(system, bus).add_observer(trace.append)
    system.reset(program.entry)
    checkpoints = [Checkpoint(cycle=0, snapshot=system.snapshot())]
    while not system.cpu.halted and system.cycle < 10_000_000:
        system.step()
        if system.cycle % interval == 0 and not system.cpu.halted:
            checkpoints.append(
                Checkpoint(cycle=system.cycle, snapshot=system.snapshot())
            )
    if not system.cpu.halted:
        raise RuntimeError("golden run did not reach the halt convention")
    _count_golden_cycles(system.cycle)
    golden = GoldenReference(
        snapshot=system.memory.snapshot(),
        cycles=system.cycle,
        instructions=system.cpu.instruction_count,
    )
    return GoldenCapture(golden=golden, trace=trace, checkpoints=checkpoints)


class SimulationEngine:
    """Judges one defect at a time against one self-test program.

    Contract shared by every engine:

    * :attr:`golden` is the fault-free reference of the program.
    * :meth:`check` returns the :class:`ResponseCheck` the paper's
      external tester would produce for the defective chip — engines
      must be outcome-equivalent, whatever shortcut they take.
    * :attr:`last_stats` holds the error-model tallies (see
      :data:`~repro.xtalk.error_model.MODEL_STATS`) of the most recent
      :meth:`check` call over the bus under test, or ``None`` when the
      engine judged the defect without simulating (callers roll them
      into observability when present).
    * :meth:`prepare` is an optional whole-library hook so batch-capable
      engines can amortize work across defects.
    """

    name: str
    golden: GoldenReference
    last_stats: Optional[Dict[str, int]]

    def prepare(self, defects: Iterable[Defect]) -> None:
        """Optional batch hook called before a library sweep."""

    def check(self, defect: Defect) -> ResponseCheck:
        raise NotImplementedError


class ExactEngine(SimulationEngine):
    """One full replay per defect (the original simulator behavior).

    ``golden`` may be injected (e.g. from the golden-run artifact
    cache, :mod:`repro.core.cache`) to skip the fault-free probe run;
    ``core`` selects the CPU implementation for every replay.
    """

    name = "exact"

    def __init__(
        self,
        program: SelfTestProgram,
        params: ElectricalParams,
        calibration: Calibration,
        bus: str,
        core: str = "auto",
        golden: Optional[GoldenReference] = None,
    ):
        self.program = program
        self.params = params
        self.calibration = calibration
        self.bus = bus
        self.core = core
        self._base_image = build_base_image(program)
        if golden is None:
            probe = make_system(program, self._base_image, core=core)
            result = probe.run(entry=program.entry, max_cycles=10_000_000)
            if not result.halted:
                raise RuntimeError(
                    "golden run did not reach the halt convention"
                )
            _count_golden_cycles(result.cycles)
            golden = GoldenReference(
                snapshot=probe.memory.snapshot(),
                cycles=result.cycles,
                instructions=result.instructions,
            )
        self.golden = golden
        self.last_stats = None

    def prepare(self, defects: Iterable[Defect]) -> None:
        """Compile the library's decision tables in one batch."""
        compile_library(
            [defect.caps for defect in defects], self.params, self.calibration
        )

    def check(self, defect: Defect) -> ResponseCheck:
        system = make_system(self.program, self._base_image, core=self.core)
        model = CrosstalkErrorModel(defect.caps, self.params, self.calibration)
        _bus_of(system, self.bus).install_corruption_hook(model.corrupt)
        result = system.run(
            entry=self.program.entry, max_cycles=self.golden.max_cycles
        )
        self.last_stats = model.stats()
        return check_response(self.golden, system, result.halted)


#: A fault-free run is indistinguishable from golden by definition.
CLEAN_CHECK = ResponseCheck(detected=False, timed_out=False, mismatches=0)

#: Cap on recorded replay behaviors per first-corruption group.  Real
#: libraries collapse to a handful of behaviors per group; the cap only
#: bounds the cost of the agreement scan if a pathological library keeps
#: producing new ones (defects beyond it are simply replayed).
MAX_REPLAY_CLASSES = 32


class _ReplayClass:
    """One observed replay behavior and the outcome it produced.

    The recorded run pushed a set of distinct corruptible transitions
    through its corruption hook.  ``seen`` masks every decision key those
    transitions touch and ``must`` the keys of the wires it flipped, in
    key space ``space``.  A defect whose corrupting keys satisfy
    ``mask & seen == must`` reproduces every one of those decisions,
    drives the deterministic system through the identical cycle
    sequence, and so provably shares ``check``.
    """

    __slots__ = ("space", "must", "seen", "check")

    def __init__(
        self, space: KeySpace, must: int, seen: int, check: ResponseCheck
    ):
        self.space = space
        self.must = must
        self.seen = seen
        self.check = check

    def agrees(self, compiled: CompiledDefect) -> bool:
        return (
            compiled.space is self.space
            and compiled.mask & self.seen == self.must
        )


class ScreenedEngine(SimulationEngine):
    """Screen the library against the golden trace; replay only divergers.

    Parameters
    ----------
    checkpoint_interval:
        Golden checkpoint spacing in cycles (``None``: derived from the
        golden cycle count).
    core:
        CPU implementation for the capture and every replay.
    capture / verdicts:
        Warm golden artifacts (e.g. from :mod:`repro.core.cache`).
        With a ``capture`` the engine does zero golden simulation;
        ``verdicts`` preloads screening results keyed by defect index,
        so already-screened defects skip the screen too.
    """

    name = "screened"

    def __init__(
        self,
        program: SelfTestProgram,
        params: ElectricalParams,
        calibration: Calibration,
        bus: str,
        checkpoint_interval: Optional[int] = None,
        core: str = "auto",
        capture: Optional[GoldenCapture] = None,
        verdicts: Optional[Dict[int, ScreenVerdict]] = None,
    ):
        self.program = program
        self.params = params
        self.calibration = calibration
        self.bus = bus
        self.core = core
        self._base_image = build_base_image(program)
        if capture is None:
            capture = capture_golden_with_trace(
                program, bus, interval=checkpoint_interval,
                base_image=self._base_image, core=core,
            )
        self.capture = capture
        self.golden = capture.golden
        self.checkpoints = capture.checkpoints
        self.screen = TraceScreen(capture.trace, params, calibration)
        self._scratch = make_system(program, self._base_image, core=core)
        self._verdicts: Dict[int, ScreenVerdict] = dict(verdicts or {})
        #: Optional write-back hook: called with the cumulative verdict
        #: map whenever :meth:`prepare` screens defects it did not
        #: already know (the cache layer uses this to persist verdicts).
        self.screen_sink = None
        # first corrupted trace index -> replay behaviors seen so far,
        # most-recently-matched first (defect libraries cluster, so the
        # scan almost always hits the front entry).
        self._replay_classes: Dict[int, List[_ReplayClass]] = {}
        self.last_stats = None

    # -- screening ----------------------------------------------------------

    def prepare(self, defects: Iterable[Defect]) -> None:
        """Compile the library's decision tables and screen it in one pass.

        Compilation is shared by every engine judging the same library
        (see :func:`~repro.xtalk.kernel.compile_library`).  Defects with
        preloaded verdicts (from the cache) skip the screen and are
        counted as ``coverage.engine.verdicts_preloaded``; when the pass
        screened anything new, the cumulative verdict map is offered to
        :attr:`screen_sink` for write-back.
        """
        defects = list(defects)
        compile_library(
            [defect.caps for defect in defects], self.params, self.calibration
        )
        missing = [
            defect for defect in defects if defect.index not in self._verdicts
        ]
        preloaded = len(defects) - len(missing)
        if preloaded:
            obs_runtime.registry().counter(
                "coverage.engine.verdicts_preloaded"
            ).inc(preloaded)
        if not missing:
            return
        verdicts = self.screen.screen(missing)
        for defect, verdict in zip(missing, verdicts):
            self._verdicts[defect.index] = verdict
        if self.screen_sink is not None:
            self.screen_sink(dict(self._verdicts))

    def _verdict_for(self, defect: Defect) -> ScreenVerdict:
        verdict = self._verdicts.get(defect.index)
        if verdict is None:
            verdict = self.screen.screen_one(defect)
            self._verdicts[defect.index] = verdict
        return verdict

    def _checkpoint_before(self, cycle: int) -> Checkpoint:
        """The latest golden checkpoint strictly before ``cycle``.

        A transaction stamped with cycle *c* happens during the step
        that advances the clock to *c*, so any checkpoint taken at a
        cycle ``< c`` precedes it.
        """
        best = self.checkpoints[0]
        for checkpoint in self.checkpoints:
            if checkpoint.cycle >= cycle:
                break
            best = checkpoint
        return best

    # -- judging ------------------------------------------------------------

    @staticmethod
    def _matching_class(
        classes: List[_ReplayClass], compiled: CompiledDefect
    ) -> Optional[_ReplayClass]:
        """The recorded behavior the defect reproduces, if any.

        Agreement must hold on *every* transition the recorded run
        pushed through its hook — including the ones it left intact —
        because a defect that additionally corrupts a later transition
        of that run would diverge from it there.
        """
        for position, known in enumerate(classes):
            if known.agrees(compiled):
                if position:  # move-to-front: clusters are heavily skewed
                    del classes[position]
                    classes.insert(0, known)
                return known
        return None

    def check(self, defect: Defect) -> ResponseCheck:
        verdict = self._verdict_for(defect)
        registry = obs_runtime.registry()
        if verdict.clean:
            # Provably identical to the fault-free run: no simulation.
            self.last_stats = None
            registry.counter("coverage.engine.screened_clean").inc()
            return CLEAN_CHECK
        compiled = compile_defect(defect.caps, self.params, self.calibration)
        classes = self._replay_classes.setdefault(verdict.first_index, [])
        known = self._matching_class(classes, compiled)
        if known is not None:
            # Provably identical to an already-simulated defective run.
            self.last_stats = None
            registry.counter("coverage.engine.replay_deduped").inc()
            return known.check
        registry.counter("coverage.engine.replayed").inc()
        checkpoint = self._checkpoint_before(verdict.first_cycle)
        if checkpoint.cycle > 0:
            registry.counter("coverage.engine.checkpoint_resumed").inc()
        system = self._scratch
        system.restore(checkpoint.snapshot)
        recorded: Tuple[Dict[int, int], ...] = ({}, {})
        bus = _bus_of(system, self.bus)
        bus.install_corruption_hook(compiled.recording_hook(recorded))
        tallies_before = _model_tallies(bus)
        runs_before = system.load_runs
        loads_before = system.load_run_instructions
        max_cycles = self.golden.max_cycles
        try:
            result = system.resume(
                max_cycles=max_cycles, prove_hang_from=self.golden.cycles
            )
        finally:
            bus.install_corruption_hook(None)
        if result.hang_proven:
            registry.counter("coverage.engine.hang_proven").inc()
            registry.counter("coverage.engine.hang_cycles_saved").inc(
                max_cycles - result.cycles
            )
        if system.load_runs != runs_before:
            registry.counter("coverage.engine.load_runs").inc(
                system.load_runs - runs_before
            )
            registry.counter("coverage.engine.load_run_instructions").inc(
                system.load_run_instructions - loads_before
            )
        self.last_stats = {
            name: after - before
            for name, after, before in zip(
                MODEL_STATS, _model_tallies(bus), tallies_before
            )
        }
        outcome = check_response(self.golden, system, result.halted)
        if len(classes) < MAX_REPLAY_CLASSES:
            must, seen = compiled.space.agreement_masks(recorded)
            classes.append(_ReplayClass(compiled.space, must, seen, outcome))
        return outcome


def _model_tallies(bus: Bus) -> Tuple[int, ...]:
    """The bus's native counters in :data:`MODEL_STATS` order.

    Transactions are hook invocations; corrupted transactions, glitched
    and delayed wires are what the hook decided, counted once per
    committed transaction.
    """
    transactions, corrupted = bus.counts()[:2]
    return (transactions, corrupted) + bus.flips()


def make_engine(
    engine: str,
    program: SelfTestProgram,
    params: ElectricalParams,
    calibration: Calibration,
    bus: str,
    checkpoint_interval: Optional[int] = None,
    core: str = "auto",
    capture: Optional[GoldenCapture] = None,
    verdicts: Optional[Dict[int, ScreenVerdict]] = None,
) -> SimulationEngine:
    """Engine factory keyed by name (``"exact"`` / ``"screened"``).

    ``capture``/``verdicts`` inject warm golden artifacts (from
    :mod:`repro.core.cache`); with a capture neither engine simulates
    the golden run.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}")
    if engine == "exact":
        return ExactEngine(
            program,
            params,
            calibration,
            bus,
            core=core,
            golden=capture.golden if capture is not None else None,
        )
    return ScreenedEngine(
        program,
        params,
        calibration,
        bus,
        checkpoint_interval=checkpoint_interval,
        core=core,
        capture=capture,
        verdicts=verdicts,
    )


__all__ = [
    "ENGINES",
    "Checkpoint",
    "GoldenCapture",
    "SimulationEngine",
    "ExactEngine",
    "ScreenedEngine",
    "auto_checkpoint_interval",
    "capture_golden_with_trace",
    "make_engine",
]
