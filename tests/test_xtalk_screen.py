"""TraceScreen: first-corruption exactness, dedup, key-mask agreement."""

from dataclasses import dataclass

import pytest

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import extract_capacitance
from repro.xtalk.defects import Defect, generate_defect_library
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams
from repro.xtalk.kernel import DIRECTIONS, TransitionKernel, compile_defect
from repro.xtalk.screen import TraceScreen

WIDTH = 8
ONES = (1 << WIDTH) - 1


@dataclass(frozen=True)
class FakeTransaction:
    previous: int
    driven: int
    direction: BusDirection
    cycle: int


@pytest.fixture(scope="module")
def setup():
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    library = generate_defect_library(caps, calibration, count=60, seed=7)
    return caps, params, calibration, library


@pytest.fixture(scope="module")
def trace():
    import random

    rng = random.Random(42)
    transactions = []
    value = 0
    for cycle in range(1, 120):
        new = rng.randrange(0, ONES + 1)
        direction = rng.choice(list(BusDirection))
        transactions.append(FakeTransaction(value, new, direction, cycle))
        value = new
    # A few repeats and no-transition entries to exercise deduplication.
    transactions.append(FakeTransaction(value, value, BusDirection.CPU_TO_MEM, 120))
    transactions.extend(
        FakeTransaction(t.previous, t.driven, t.direction, 121 + i)
        for i, t in enumerate(transactions[:10])
    )
    return transactions


def naive_first_corruption(trace, defect, params, calibration):
    model = CrosstalkErrorModel(defect.caps, params, calibration)
    for index, t in enumerate(trace):
        if t.previous == t.driven:
            continue
        if model.corrupt(t.previous, t.driven, t.direction) != t.driven:
            return index
    return None


def test_first_corruption_matches_error_model(setup, trace):
    _, params, calibration, library = setup
    screen = TraceScreen(trace, params, calibration)
    for defect, verdict in zip(library, screen.screen(library.defects)):
        expected = naive_first_corruption(trace, defect, params, calibration)
        assert verdict.defect_index == defect.index
        if expected is None:
            assert verdict.clean
            assert verdict.first_index is None
        else:
            assert not verdict.clean
            assert verdict.first_index == expected
            assert verdict.first_cycle == trace[expected].cycle


def test_nominal_caps_screen_clean(setup, trace):
    caps, params, calibration, _ = setup
    nominal_defect = Defect(
        index=0, caps=caps, defective_wires=(), severity=1.0
    )
    screen = TraceScreen(trace, params, calibration)
    verdict = screen.screen_one(nominal_defect)
    assert verdict.clean
    assert screen.screen([nominal_defect]) == [verdict]


def test_screen_one_matches_batch(setup, trace):
    _, params, calibration, library = setup
    screen = TraceScreen(trace, params, calibration)
    batch = screen.screen(library.defects)
    for defect, verdict in zip(library, batch):
        assert screen.screen_one(defect) == verdict


def test_deduplication_counts(setup, trace):
    _, params, calibration, _ = setup
    screen = TraceScreen(trace, params, calibration)
    real_transitions = [t for t in trace if t.previous != t.driven]
    distinct = {
        (t.previous, t.driven, t.direction) for t in real_transitions
    }
    assert screen.trace_length == len(trace)
    assert screen.unique_transitions == len(distinct)
    assert screen.unique_transitions < len(real_transitions)


def test_empty_trace_is_all_clean(setup):
    _, params, calibration, library = setup
    screen = TraceScreen([], params, calibration)
    assert all(v.clean for v in screen.screen(library.defects))


def recorded_decisions(trace, defect, params, calibration):
    """What a recorded replay would store: transition -> received word."""
    kernel = TransitionKernel(defect.caps, params, calibration)
    decisions = {}
    for t in trace:
        if t.previous == t.driven:
            continue
        received, _, _ = kernel.decide(t.previous, t.driven, t.direction)
        decisions[(t.previous, t.driven, t.direction)] = received
    return tuple(decisions.items())


def per_direction(decisions, width):
    """The decisions as the replay hook records them, one map per direction."""
    recorded = tuple({} for _ in DIRECTIONS)
    for (previous, driven, direction), received in decisions:
        recorded[DIRECTIONS.index(direction)][previous << width | driven] = (
            received
        )
    return recorded


def test_key_mask_agreement_matches_decide(setup, trace):
    """``mask & seen == must`` iff ``decide`` reproduces every recorded
    decision — the replay-dedup agreement test, for every pair of
    (recording, candidate) defects in the library."""
    _, params, calibration, library = setup
    defects = library.defects[:20]
    compiled = [compile_defect(d.caps, params, calibration) for d in defects]
    kernels = [TransitionKernel(d.caps, params, calibration) for d in defects]
    agreements = 0
    for recorder, entry in zip(defects, compiled):
        decisions = recorded_decisions(trace, recorder, params, calibration)
        assert decisions, "trace must produce recordable transitions"
        must, seen = entry.space.agreement_masks(
            per_direction(decisions, entry.space.width)
        )
        for candidate, kernel in zip(compiled, kernels):
            assert candidate.space is entry.space
            reproduces = all(
                kernel.decide(previous, driven, direction)[0] == received
                for (previous, driven, direction), received in decisions
            )
            assert (candidate.mask & seen == must) == reproduces
            agreements += reproduces
    assert agreements > len(defects), "expected some cross-defect agreement"
