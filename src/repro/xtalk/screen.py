"""Whole-library trace screening against a golden transaction trace.

The defect simulation invariant this module exploits: the cycle-accurate
system is deterministic and the error model is a pure function of the
transition ``(previous, driven, direction)``.  By induction over the
transaction stream, a defective run is **cycle-identical** to the
fault-free golden run up to (and excluding) the first golden transaction
whose transition the defect's kernel corrupts.  Therefore:

* a defect that corrupts *no* transaction of the golden trace provably
  behaves identically to the fault-free run — no simulation needed;
* a defect whose first corrupted transaction is at cycle *c* can be
  replayed from any fault-free checkpoint taken before *c* (see
  :mod:`repro.core.engine`).

A :class:`TraceScreen` evaluates a whole
:class:`~repro.xtalk.defects.DefectLibrary` against one captured trace
and returns, per defect, the index/cycle of its first corrupted
transaction or a ``clean`` verdict.  It uses the compiled decision of
:mod:`repro.xtalk.kernel`: a transition corrupts a defect iff one of its
per-wire keys is among the defect's corrupting keys.  So the screen maps
every key to the earliest trace position whose transition touches it,
and a defect's first corruption is the minimum of that map over its
corrupting keys — exact integer work, one small ``[defects, keys]``
array per library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import Defect
from repro.xtalk.kernel import DIRECTIONS, KeySpace, compile_library
from repro.xtalk.params import ElectricalParams


@dataclass(frozen=True)
class ScreenVerdict:
    """Screening result for one defect against one golden trace.

    ``clean`` means no transaction of the trace is corrupted — the
    defective run is provably identical to the fault-free run.
    Otherwise ``first_index``/``first_cycle`` locate the first corrupted
    transaction (trace position and bus cycle).
    """

    defect_index: int
    clean: bool
    first_index: Optional[int] = None
    first_cycle: Optional[int] = None


class TraceScreen:
    """Screens defect libraries against one golden transaction trace.

    Parameters
    ----------
    trace:
        The golden run's transactions of the bus under test, in order.
        Any objects with ``previous``, ``driven``, ``direction`` and
        ``cycle`` attributes work (e.g.
        :class:`~repro.soc.bus.BusTransaction`).
    params / calibration:
        Electrical parameters and nominal-bus thresholds, shared with
        the error model so screen and replay agree.
    """

    def __init__(
        self,
        trace: Sequence[object],
        params: ElectricalParams,
        calibration: Calibration,
    ):
        self.params = params
        self.calibration = calibration
        self.trace_length = len(trace)
        # Deduplicate: identical transitions corrupt identically, so each
        # unique (previous, driven, direction) triple is keyed once, at
        # its earliest trace position.
        uniques: List[Tuple[int, int, BusDirection]] = []
        first_occurrence: List[int] = []
        seen = set()
        for index, transaction in enumerate(trace):
            previous = transaction.previous
            driven = transaction.driven
            if previous == driven:
                continue  # no transition, can never corrupt
            key = (previous, driven, transaction.direction)
            if key in seen:
                continue
            seen.add(key)
            uniques.append(key)
            first_occurrence.append(index)
        self._uniques = uniques
        self._first_occurrence = np.array(first_occurrence, dtype=np.int64)
        self._cycle_at = {
            index: trace[index].cycle for index in first_occurrence
        }
        self._first_by_key: Dict[KeySpace, np.ndarray] = {}

    @property
    def unique_transitions(self) -> int:
        """Distinct corruptible transitions in the trace."""
        return len(self._uniques)

    # -- public API ---------------------------------------------------------

    def screen(self, defects: Iterable[Defect]) -> List[ScreenVerdict]:
        """Evaluate every defect against the deduplicated trace."""
        defects = list(defects)
        compiled = compile_library(
            [defect.caps for defect in defects], self.params, self.calibration
        )
        groups: Dict[KeySpace, List[int]] = {}
        for position, entry in enumerate(compiled):
            groups.setdefault(entry.space, []).append(position)
        first = [self.trace_length] * len(defects)
        for space, positions in groups.items():
            corrupting = np.stack([compiled[p].corrupting for p in positions])
            earliest = np.where(
                corrupting, self._earliest_by_key(space), self.trace_length
            ).min(axis=1)
            for position, index in zip(positions, earliest.tolist()):
                first[position] = index
        return [
            ScreenVerdict(defect_index=defect.index, clean=True)
            if index >= self.trace_length
            else ScreenVerdict(
                defect_index=defect.index,
                clean=False,
                first_index=index,
                first_cycle=self._cycle_at[index],
            )
            for defect, index in zip(defects, first)
        ]

    def screen_one(self, defect: Defect) -> ScreenVerdict:
        """Evaluate a single defect."""
        return self.screen([defect])[0]

    def _earliest_by_key(self, space: KeySpace) -> np.ndarray:
        """Earliest trace position touching each key (trace length if none)."""
        earliest = self._first_by_key.get(space)
        if earliest is None:
            earliest = np.full(space.key_count, self.trace_length, np.int64)
            if self._uniques:
                keys = space.keys(
                    np.array([u[0] for u in self._uniques], dtype=np.int64),
                    np.array([u[1] for u in self._uniques], dtype=np.int64),
                    np.array(
                        [DIRECTIONS.index(u[2]) for u in self._uniques],
                        dtype=np.int64,
                    ),
                )
                np.minimum.at(
                    earliest,
                    keys.ravel(),
                    np.repeat(self._first_occurrence, space.width),
                )
            self._first_by_key[space] = earliest
        return earliest
