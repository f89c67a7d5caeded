"""The crosstalk decision, compiled into exact per-wire context tables.

The error model judges one bus transition ``previous -> driven`` wire by
wire (after Bai & Dey's high-level model):

* a *stable* wire flips if the net signed coupling injected by switching
  neighbours exceeds the glitch threshold (positive glitch on a stable-0
  wire, negative on a stable-1 wire);
* a *switching* wire is sampled at its old value if its Miller-weighted
  coupling load exceeds the per-direction delay slack.

That arithmetic lives in exactly one function, :func:`miller_charge`.
Because coupling is local, whether wire *i* is corrupted depends only on
a **key** ``(direction, i, ctx)``, where ``ctx`` holds the previous and
driven bits of *i* and of its coupled neighbours: 64 contexts for an
inner wire of a nearest-neighbour bus, 16 for an edge wire.  Compiling a
capacitance set evaluates :func:`miller_charge` once per key, vectorised
over a whole defect library, and keeps the set of *corrupting* keys.
Every consumer then decides exactly, with integer lookups only:

* :meth:`TransitionKernel.decide` — the replay hook: ``received = driven
  ^ (wires whose key corrupts)``, read from per-window lookup tables;
* :class:`~repro.xtalk.screen.TraceScreen` — a transition corrupts a
  defect iff one of its keys is among the defect's corrupting keys;
* the screened engine's replay dedup — a recorded run becomes a "must
  corrupt" and a "must not corrupt" key mask
  (:meth:`KeySpace.agreement_masks`).

:meth:`TransitionKernel.explain` calls :func:`miller_charge` with
scalars, because it reports the magnitudes.  The terms are added in
neighbour order starting from ``0.0`` whether the operands are scalars or
arrays, so the compiled tables agree with the scalar evaluation bit for
bit — there is no tolerance band anywhere.

Each wire's table is sized by its neighbour degree.  Coupling may reach
at most :data:`MAX_COUPLING_DISTANCE` wire positions (second neighbours,
so at most four neighbours and 1024 contexts per wire); a capacitance set
that couples farther is refused with :class:`ValueError`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.params import LN2, ElectricalParams

#: The farthest wire distance a coupling capacitor may span.  Two allows
#: second-neighbour coupling: at most four neighbours, 4**5 contexts.
MAX_COUPLING_DISTANCE = 2

#: Wires whose previous and driven bits index one replay lookup table
#: (4**6 = 4096 entries).  Every wire's neighbourhood spans at most
#: ``2 * MAX_COUPLING_DISTANCE + 1`` wires, so it always fits one window.
WINDOW_WIRES = 6

#: Order of every per-direction table.
DIRECTIONS = (BusDirection.CPU_TO_MEM, BusDirection.MEM_TO_CPU)


@dataclass(frozen=True)
class WireError:
    """Diagnostic record for one corrupted wire in one transition."""

    wire: int
    effect: str  # "positive_glitch", "negative_glitch", "delay"
    magnitude: float  # coupled capacitance (fF) that caused the error
    threshold: float  # the threshold it exceeded (fF)


def miller_charge(victim_previous, victim_driven, aggressors, couplings):
    """The coupling one wire sees, to compare with its slack or threshold.

    A *switching* victim sees its Miller-weighted load: quiet aggressors
    weigh 1x, aggressors switching the opposite way 2x, the same way 0x;
    the load corrupts the wire if it exceeds the delay slack.  A
    *stable* victim sees the charge its switching aggressors inject,
    signed so that a positive value pushes it towards the wrong level
    (up on a stable 0, down on a stable 1); it corrupts the wire if it
    exceeds the glitch threshold.

    ``aggressors`` holds one ``(previous, driven)`` bit pair per
    neighbour, aligned with ``couplings``.  Bits may be ints or integer
    arrays and couplings floats or float arrays; the terms are added in
    neighbour order from ``0.0`` either way, so scalar and vectorised
    evaluations agree bit for bit.
    """
    switching = victim_previous ^ victim_driven
    toward = 1 - 2 * victim_driven  # +1 on a stable 0, -1 on a stable 1
    total = 0.0
    for (previous, driven), coupling in zip(aggressors, couplings):
        moving = previous ^ driven
        load = 1 - moving + 2 * moving * (driven ^ victim_driven)
        injected = moving * (2 * driven - 1) * toward
        total = total + (switching * load + (1 - switching) * injected) * coupling
    return total


def _limits(coupling, ground, params: ElectricalParams, calibration: Calibration):
    """Glitch thresholds ``[..., n]`` and delay slacks ``[2, ..., n]``.

    Capacitance domain: a glitch needs more than ``v_th * (Cg + Cnet) /
    (alpha * Vdd)`` injected, a delay more than ``t_margin / (ln2 * R *
    1e-15) - Cg`` of load.  The net coupling is summed left to right
    along each row, one fixed order for every caller.
    """
    net = 0.0
    for j in range(coupling.shape[-1]):
        net = net + coupling[..., j]
    scale = params.glitch_attenuation * params.vdd
    glitch = calibration.v_th * (ground + net) / scale
    slack = np.stack([
        calibration.margin_for(direction)
        / (LN2 * params.r_for(direction) * 1e-15)
        - ground
        for direction in DIRECTIONS
    ])
    return glitch, slack


def _to_mask(flags) -> int:
    """A boolean key vector as an int whose bit *k* is key *k*."""
    return int.from_bytes(
        np.packbits(flags, bitorder="little").tobytes(), "little"
    )


class KeySpace:
    """The decision keys of one coupling structure.

    ``neighbours[i]`` lists the wires coupled to wire *i* in ascending
    order.  Keys are laid out direction-major, then wire, then context;
    wire *i*'s context packs the previous bits of ``(i, *neighbours[i])``
    into its low half and their driven bits into its high half.  Spaces
    are interned (see :func:`key_space`), so two compiled defects share
    comparable keys iff ``a.space is b.space``.
    """

    def __init__(self, neighbours: Tuple[Tuple[int, ...], ...]):
        self.width = len(neighbours)
        self.neighbours = neighbours
        self.wires = tuple((i,) + near for i, near in enumerate(neighbours))
        offsets = []
        count = 0
        for _ in DIRECTIONS:
            row = []
            for wires in self.wires:
                row.append(count)
                count += 4 ** len(wires)
            offsets.append(row)
        self.offsets = np.array(offsets, dtype=np.int64)  # [2, n]
        self.key_count = count
        self.windows = self._windows()
        self._gathers: Optional[List[List[np.ndarray]]] = None

    def _windows(self) -> List[Tuple[int, int, int, int]]:
        """``(lo, hi, start, stop)``: wires ``lo..hi-1`` are decided from
        the bits of wires ``start..stop-1`` (at most :data:`WINDOW_WIRES`)."""
        windows = []
        lo = 0
        while lo < self.width:
            start, stop = min(self.wires[lo]), max(self.wires[lo]) + 1
            hi = lo + 1
            while hi < self.width:
                wider = (
                    min(start, min(self.wires[hi])),
                    max(stop, max(self.wires[hi]) + 1),
                )
                if wider[1] - wider[0] > WINDOW_WIRES:
                    break
                start, stop = wider
                hi += 1
            windows.append((lo, hi, start, stop))
            lo = hi
        return windows

    def keys(self, previous, driven, direction_index):
        """The key of every wire for each transition: ``[..., n]``.

        Operands are int arrays (or ints) of equal shape;
        ``direction_index`` indexes :data:`DIRECTIONS`.
        """
        columns = []
        for i, wires in enumerate(self.wires):
            high = len(wires)
            context = 0
            for position, wire in enumerate(wires):
                context = (
                    context
                    | (((previous >> wire) & 1) << position)
                    | (((driven >> wire) & 1) << (high + position))
                )
            columns.append(self.offsets[direction_index, i] + context)
        return np.stack(columns, axis=-1)

    def agreement_masks(
        self, recorded: Sequence[Mapping[int, int]]
    ) -> Tuple[int, int]:
        """``(must, seen)`` key masks of recorded decisions.

        ``recorded[k]`` maps each decided transition of direction
        ``DIRECTIONS[k]``, keyed ``previous << width | driven``, to the
        received word.  A compiled defect reproduces every one of them
        iff ``defect.mask & seen == must``: the keys of flipped wires
        must corrupt, every other key the transitions touch must not.
        """
        transitions = np.array(
            [t for decided in recorded for t in decided], dtype=np.int64
        )
        received = np.array(
            [r for decided in recorded for r in decided.values()],
            dtype=np.int64,
        )
        direction_index = np.repeat(
            np.arange(len(recorded), dtype=np.int64),
            [len(decided) for decided in recorded],
        )
        driven = transitions & ((1 << self.width) - 1)
        keys = self.keys(transitions >> self.width, driven, direction_index)
        flipped = (
            ((received ^ driven)[:, None] >> np.arange(self.width)) & 1
        ).astype(bool)
        must = np.zeros(self.key_count, dtype=bool)
        must[keys[flipped]] = True
        seen = np.zeros(self.key_count, dtype=bool)
        seen[keys.ravel()] = True
        return _to_mask(must), _to_mask(seen)

    def lookup_tables(
        self, corrupting: np.ndarray, interned: Dict[bytes, bytes]
    ):
        """Per-direction replay windows ``(shift, mask, bits, lo, table)``.

        ``table`` (bytes) maps a window's previous bits plus its driven
        bits shifted up by ``bits`` to the flip mask of wires ``lo..``.
        Equal tables are shared through ``interned``: a defect perturbs
        a few wires, so most of its windows equal other defects'.
        """
        if self._gathers is None:
            self._gathers = [
                [self._gather(k, window) for window in self.windows]
                for k in range(len(DIRECTIONS))
            ]
        tables = []
        for gathers in self._gathers:
            per_direction = []
            for (lo, hi, start, stop), gather in zip(self.windows, gathers):
                weights = (1 << np.arange(hi - lo, dtype=np.uint8))[:, None]
                table = (corrupting[gather] * weights).sum(
                    axis=0, dtype=np.uint8
                )
                raw = table.tobytes()
                per_direction.append(
                    (start, (1 << (stop - start)) - 1, stop - start, lo,
                     interned.setdefault(raw, raw))
                )
            tables.append(tuple(per_direction))
        return tables

    def _gather(self, direction_index: int, window) -> np.ndarray:
        """Key of each window wire for every window index: ``[hi-lo, 4**w]``."""
        lo, hi, start, stop = window
        bits = stop - start
        index = np.arange(1 << (2 * bits), dtype=np.int64)
        previous = (index & ((1 << bits) - 1)) << start
        driven = (index >> bits) << start
        keys = self.keys(previous, driven, direction_index)
        return keys[:, lo:hi].T.copy()


_SPACES: Dict[Tuple[Tuple[int, ...], ...], KeySpace] = {}


def key_space(neighbours: Tuple[Tuple[int, ...], ...]) -> KeySpace:
    """The interned :class:`KeySpace` of a coupling structure."""
    space = _SPACES.get(neighbours)
    if space is None:
        for i, near in enumerate(neighbours):
            for j in near:
                if abs(i - j) > MAX_COUPLING_DISTANCE:
                    raise ValueError(
                        f"wires {i} and {j} are coupled across "
                        f"{abs(i - j)} positions; the crosstalk kernel "
                        f"supports at most {MAX_COUPLING_DISTANCE}"
                    )
        space = _SPACES[neighbours] = KeySpace(neighbours)
    return space


class CompiledDefect:
    """One capacitance set's decision: its corrupting keys and limits.

    ``interned`` is shared by the sets compiled in one batch (one
    library): their replay tables are kept once per distinct content.
    """

    __slots__ = (
        "space", "corrupting", "mask", "glitch", "slack", "_interned",
        "_tables",
    )

    def __init__(self, space, corrupting, mask, glitch, slack, interned):
        self.space: KeySpace = space
        self.corrupting: np.ndarray = corrupting  # [key_count] bool
        self.mask: int = mask  # the same set as an int bitmask
        self.glitch: np.ndarray = glitch  # [n] glitch thresholds
        self.slack: np.ndarray = slack  # [2, n] delay slacks
        self._interned: Dict[bytes, bytes] = interned
        self._tables = None

    def lookup_tables(self):
        """The replay hook's lookup tables, built on first use."""
        if self._tables is None:
            self._tables = self.space.lookup_tables(
                self.corrupting, self._interned
            )
        return self._tables

    def recording_hook(
        self, recorded: Tuple[Dict[int, int], ...]
    ) -> Callable[[int, int, BusDirection], int]:
        """A bus corruption hook that decides and records each decision.

        It decides as :meth:`TransitionKernel.decide` does, in one frame
        over :meth:`lookup_tables`.  Every transition lands in
        ``recorded[k]`` for direction ``DIRECTIONS[k]``, keyed
        ``previous << width | driven`` — the form
        :meth:`KeySpace.agreement_masks` reads.  What it returns is a
        pure function of the transition, so deciding one twice records
        the same word twice.
        """
        cpu_windows, mem_windows = self.lookup_tables()
        cpu_recorded, mem_recorded = recorded
        width = self.space.width
        cpu_to_mem = DIRECTIONS[0]

        def hook(previous: int, driven: int, direction: BusDirection) -> int:
            if previous == driven:  # no transition corrupts no wire
                return driven
            if direction is cpu_to_mem:
                windows, decided = cpu_windows, cpu_recorded
            else:
                windows, decided = mem_windows, mem_recorded
            flips = 0
            for shift, mask, bits, lo, table in windows:
                flips |= table[
                    ((previous >> shift) & mask)
                    | (((driven >> shift) & mask) << bits)
                ] << lo
            received = driven ^ flips
            decided[previous << width | driven] = received
            return received

        return hook


def _compile(
    sets: Sequence[CapacitanceSet],
    params: ElectricalParams,
    calibration: Calibration,
) -> List[CompiledDefect]:
    """Evaluate :func:`miller_charge` for every key of every set at once."""
    coupling = np.array([caps.coupling for caps in sets], dtype=np.float64)
    ground = np.array([caps.ground for caps in sets], dtype=np.float64)
    coupled = (coupling > 0.0).any(axis=0)
    space = key_space(tuple(
        tuple(int(j) for j in np.flatnonzero(row)) for row in coupled
    ))
    glitch, slack = _limits(coupling, ground, params, calibration)
    corrupting = np.empty((len(sets), space.key_count), dtype=bool)
    for i, wires in enumerate(space.wires):
        high = len(wires)
        context = np.arange(4 ** high, dtype=np.int64)
        bits = [
            ((context >> p) & 1, (context >> (high + p)) & 1)
            for p in range(high)
        ]
        (victim_previous, victim_driven), aggressors = bits[0], bits[1:]
        charge = miller_charge(
            victim_previous, victim_driven, aggressors,
            [coupling[:, i, j, None] for j in wires[1:]],
        )
        switching = (victim_previous ^ victim_driven).astype(bool)
        for k in range(len(DIRECTIONS)):
            limit = np.where(
                switching, slack[k, :, i, None], glitch[:, i, None]
            )
            start = space.offsets[k, i]
            corrupting[:, start:start + 4 ** high] = charge > limit
    interned: Dict[bytes, bytes] = {}
    return [
        CompiledDefect(
            space, corrupting[d], _to_mask(corrupting[d]), glitch[d],
            slack[:, d], interned,
        )
        for d in range(len(sets))
    ]


#: ``CapacitanceSet -> {limits key: CompiledDefect}``.  A campaign judges
#: one library against many programs; the tables are compiled once per
#: library, not once per program.  Weak keys: entries die with their set.
_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _limits_key(params: ElectricalParams, calibration: Calibration):
    return (
        params,
        calibration.v_th,
        tuple(calibration.margin_for(direction) for direction in DIRECTIONS),
    )


def compile_library(
    sets: Sequence[CapacitanceSet],
    params: ElectricalParams,
    calibration: Calibration,
) -> List[CompiledDefect]:
    """The compiled decision of every set, compiling the missing ones in
    one vectorised batch (they share the batch's key space)."""
    key = _limits_key(params, calibration)
    compiled: List[Optional[CompiledDefect]] = []
    missing: List[int] = []
    for position, caps in enumerate(sets):
        entry = _COMPILED.get(caps, {}).get(key)
        compiled.append(entry)
        if entry is None:
            missing.append(position)
    if missing:
        fresh = _compile([sets[p] for p in missing], params, calibration)
        for position, entry in zip(missing, fresh):
            compiled[position] = entry
            _COMPILED.setdefault(sets[position], {})[key] = entry
    return compiled  # type: ignore[return-value]


def compile_defect(
    caps: CapacitanceSet, params: ElectricalParams, calibration: Calibration
) -> CompiledDefect:
    """The compiled decision of one capacitance set."""
    return compile_library([caps], params, calibration)[0]


class TransitionKernel:
    """Per-wire corruption decision for one capacitance set.

    Parameters
    ----------
    caps:
        The (possibly defect-perturbed) capacitance parameter set.
    params:
        Driver/receiver electrical parameters.
    calibration:
        Thresholds; derive them from the *nominal* capacitances so that a
        perturbed bus is judged against the design's margins, not its own.

    The kernel is pure: every method depends only on the constructor
    arguments and mutates nothing.
    """

    __slots__ = ("width", "caps", "compiled", "_cpu_windows", "_mem_windows")

    def __init__(
        self,
        caps: CapacitanceSet,
        params: ElectricalParams,
        calibration: Calibration,
    ):
        self.width = caps.wire_count
        self.caps = caps
        self.compiled = compile_defect(caps, params, calibration)
        self._cpu_windows, self._mem_windows = self.compiled.lookup_tables()

    @property
    def glitch_threshold(self) -> List[float]:
        """Per-wire glitch thresholds (fF of injected coupling)."""
        return self.compiled.glitch.tolist()

    # -- the hot path -------------------------------------------------------

    def decide(
        self, previous: int, driven: int, direction: BusDirection
    ) -> Tuple[int, int, int]:
        """Evaluate one transition.

        Returns ``(received, glitch_flips, delay_flips)``: the word the
        receiver samples plus how many wires each error mechanism flipped
        (a flipped switching wire is a delay error, a flipped stable wire
        a glitch).
        """
        if previous == driven:
            return driven, 0, 0
        windows = (
            self._cpu_windows
            if direction is BusDirection.CPU_TO_MEM
            else self._mem_windows
        )
        flips = 0
        for shift, mask, bits, lo, table in windows:
            flips |= table[
                ((previous >> shift) & mask)
                | (((driven >> shift) & mask) << bits)
            ] << lo
        if not flips:
            return driven, 0, 0
        delays = bin(flips & (previous ^ driven)).count("1")
        return driven ^ flips, bin(flips).count("1") - delays, delays

    def corrupts(
        self, previous: int, driven: int, direction: BusDirection
    ) -> bool:
        """True iff the transition corrupts at least one wire."""
        return self.decide(previous, driven, direction)[0] != driven

    # -- diagnostics --------------------------------------------------------

    def explain(
        self, previous: int, driven: int, direction: BusDirection
    ) -> List[WireError]:
        """Describe every wire error the transition would produce.

        Evaluates :func:`miller_charge` with scalars for the magnitudes;
        a :class:`WireError` is reported for wire *i* exactly when
        :meth:`decide` flips it.
        """
        errors: List[WireError] = []
        if previous == driven:
            return errors
        slack = self.compiled.slack[DIRECTIONS.index(direction)].tolist()
        glitch = self.glitch_threshold
        coupling = self.caps.coupling
        for i, wires in enumerate(self.compiled.space.wires):
            bits = [((previous >> j) & 1, (driven >> j) & 1) for j in wires]
            (victim_previous, victim_driven), aggressors = bits[0], bits[1:]
            charge = miller_charge(
                victim_previous, victim_driven, aggressors,
                [coupling[i][j] for j in wires[1:]],
            )
            if victim_previous != victim_driven:
                limit, effect = slack[i], "delay"
            elif victim_driven:
                limit, effect = glitch[i], "negative_glitch"
            else:
                limit, effect = glitch[i], "positive_glitch"
            if charge > limit:
                errors.append(WireError(i, effect, charge, limit))
        return errors
