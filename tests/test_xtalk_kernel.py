"""The compiled transition kernel: purity, model agreement, explain/decide
consistency, the coupling-distance cap, and exactness of the compiled
tables against an independent per-wire evaluation of the error rule."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import DefectSimulator
from repro.core.program_builder import SelfTestProgramBuilder
from repro.soc.bus import BusDirection
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import extract_capacitance, parse_capacitance
from repro.xtalk.defects import generate_defect_library
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.kernel import (
    MAX_COUPLING_DISTANCE,
    TransitionKernel,
    compile_defect,
    compile_library,
)
from repro.xtalk.params import LN2, ElectricalParams
from repro.xtalk.screen import TraceScreen

WIDTH = 8
ONES = (1 << WIDTH) - 1


@pytest.fixture(scope="module")
def nominal():
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    return caps, params, calibrate(caps, params)


def perturbed_kernel(nominal, factor):
    caps, params, calibration = nominal
    n = caps.wire_count
    factors = [[factor] * n for _ in range(n)]
    return TransitionKernel(caps.perturbed(factors), params, calibration)


@settings(max_examples=80)
@given(
    v1=st.integers(0, ONES),
    v2=st.integers(0, ONES),
    factor=st.sampled_from([1.0, 1.6, 2.2, 3.0]),
)
def test_explain_reports_exactly_the_flipped_wires(v1, v2, factor):
    """explain() names wire *i* iff decide() flips wire *i* — per wire."""
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    kernel = TransitionKernel(
        caps.perturbed([[factor] * WIDTH for _ in range(WIDTH)]),
        params,
        calibrate(caps, params),
    )
    for direction in BusDirection:
        received, glitches, delays = kernel.decide(v1, v2, direction)
        errors = kernel.explain(v1, v2, direction)
        assert {e.wire for e in errors} == {
            i for i in range(WIDTH) if (received ^ v2) & (1 << i)
        }
        assert glitches == sum(1 for e in errors if e.effect.endswith("glitch"))
        assert delays == sum(1 for e in errors if e.effect == "delay")
        assert kernel.corrupts(v1, v2, direction) == (received != v2)


@settings(max_examples=60)
@given(v1=st.integers(0, ONES), v2=st.integers(0, ONES))
def test_kernel_agrees_with_error_model(v1, v2):
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    bad = caps.perturbed([[2.4] * WIDTH for _ in range(WIDTH)])
    kernel = TransitionKernel(bad, params, calibration)
    model = CrosstalkErrorModel(bad, params, calibration)
    for direction in BusDirection:
        assert model.corrupt(v1, v2, direction) == kernel.decide(
            v1, v2, direction
        )[0]


def test_model_accepts_prebuilt_kernel(nominal):
    caps, params, calibration = nominal
    kernel = TransitionKernel(caps, params, calibration)
    model = CrosstalkErrorModel(caps, params, calibration, kernel=kernel)
    assert model.kernel is kernel
    assert model.corrupt(0x00, 0xFF, BusDirection.CPU_TO_MEM) == 0xFF


def test_kernel_is_pure(nominal):
    kernel = perturbed_kernel(nominal, 2.5)
    first = kernel.decide(0x00, 0x55, BusDirection.CPU_TO_MEM)
    thresholds = list(kernel.glitch_threshold)
    for _ in range(3):
        assert kernel.decide(0x00, 0x55, BusDirection.CPU_TO_MEM) == first
    assert kernel.glitch_threshold == thresholds


def test_no_transition_is_never_an_error(nominal):
    kernel = perturbed_kernel(nominal, 3.0)
    assert kernel.decide(0x33, 0x33, BusDirection.MEM_TO_CPU) == (0x33, 0, 0)
    assert not kernel.corrupts(0x33, 0x33, BusDirection.MEM_TO_CPU)
    assert kernel.explain(0x33, 0x33, BusDirection.MEM_TO_CPU) == []


def reference_received(caps, params, calibration, previous, driven, direction):
    """The error rule evaluated wire by wire, straight from its statement."""
    scale = params.glitch_attenuation * params.vdd
    margin = calibration.margin_for(direction) / (
        LN2 * params.r_for(direction) * 1e-15
    )
    received = driven
    for i in range(caps.wire_count):
        bit = 1 << i
        if (previous ^ driven) & bit:
            load = 0.0
            for j, cc in caps.neighbours(i):
                if not (previous ^ driven) & (1 << j):
                    load += cc
                elif bool(driven & (1 << j)) != bool(driven & bit):
                    load += cc + cc
            if load > margin - caps.ground[i]:
                received ^= bit
        else:
            injected = 0.0
            for j, cc in caps.neighbours(i):
                if (previous ^ driven) & (1 << j):
                    injected += cc if driven & (1 << j) else -cc
            net = 0.0
            for cc in caps.coupling[i]:
                net += cc
            threshold = calibration.v_th * (caps.ground[i] + net) / scale
            if (-injected if driven & bit else injected) > threshold:
                received ^= bit
    return received


#: Per-coupling factors, zero included: a zero-factor capacitor drops out
#: of one set's structure but stays in the library's shared key space.
FACTORS = st.sampled_from([0.0, 0.0, 0.4, 1.0, 1.7, 2.6, 3.5])


@settings(max_examples=40, deadline=None)
@given(
    library=st.lists(
        st.lists(FACTORS, min_size=WIDTH - 1, max_size=WIDTH - 1),
        min_size=1, max_size=4,
    ),
    transitions=st.lists(
        st.tuples(st.integers(0, ONES), st.integers(0, ONES)),
        min_size=1, max_size=12,
    ),
)
def test_compiled_decide_equals_per_wire_arithmetic(library, transitions):
    """decide() flips exactly the wires explain() reports, which are
    exactly the wires the per-wire rule corrupts — for every set of a
    library compiled in one batch, edge wires and zero factors included."""
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    sets = []
    for gaps in library:
        factors = [[1.0] * WIDTH for _ in range(WIDTH)]
        for i, factor in enumerate(gaps):
            factors[i][i + 1] = factors[i + 1][i] = factor
        sets.append(caps.perturbed(factors))
    compile_library(sets, params, calibration)
    for perturbed in sets:
        kernel = TransitionKernel(perturbed, params, calibration)
        for previous, driven in transitions:
            for direction in BusDirection:
                received, glitches, delays = kernel.decide(
                    previous, driven, direction
                )
                errors = kernel.explain(previous, driven, direction)
                assert {e.wire for e in errors} == {
                    i for i in range(WIDTH) if (received ^ driven) >> i & 1
                }
                assert glitches + delays == len(errors)
                assert received == reference_received(
                    perturbed, params, calibration, previous, driven,
                    direction,
                )


def coupled_caps_text(width, reach, ratio):
    """A parameter file coupling every wire to neighbours up to ``reach``
    positions away, the farther ones at ``ratio`` of the nearest."""
    nominal = extract_capacitance(BusGeometry.edge_relaxed(width))
    coupling = [list(row) for row in nominal.coupling]
    for i in range(width):
        for distance in range(2, reach + 1):
            j = i + distance
            if j < width:
                value = ratio * nominal.coupling[i][i + 1]
                coupling[i][j] = coupling[j][i] = value
    return json.dumps({"coupling": coupling, "ground": list(nominal.ground)})


def test_second_neighbour_coupling_screened_equals_exact():
    caps = parse_capacitance(coupled_caps_text(12, MAX_COUPLING_DISTANCE, 0.15))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    library = generate_defect_library(caps, calibration, count=30, seed=5)
    assert compile_defect(caps, params, calibration).space.neighbours[5] == (
        3, 4, 6, 7,
    )
    builder = SelfTestProgramBuilder()
    faults = [f for f in builder.address_faults() if f.victim in (2, 6)]
    program = builder.build_address_bus_program(faults)
    exact = DefectSimulator(
        program, params, calibration, bus="addr"
    ).run_library(library)
    screened = DefectSimulator(
        program, params, calibration, bus="addr", engine="screened"
    ).run_library(library)
    assert screened == exact
    assert any(outcome.detected for outcome in exact)


def test_coupling_beyond_the_cap_is_refused():
    caps = parse_capacitance(
        coupled_caps_text(8, MAX_COUPLING_DISTANCE + 1, 0.05)
    )
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    with pytest.raises(ValueError, match="coupled across 3 positions"):
        TransitionKernel(caps, params, calibration)
    with pytest.raises(ValueError):
        CrosstalkErrorModel(caps, params, calibration)
    with pytest.raises(ValueError):
        TraceScreen([], params, calibration).screen(
            generate_defect_library(caps, calibration, count=2, seed=1)
        )


def test_library_tables_are_interned_by_content(nominal):
    """Defects of one compiled library share equal window tables, and
    sharing changes no table."""
    caps, params, calibration = nominal
    library = generate_defect_library(caps, calibration, 40, seed=5)
    compiled = compile_library(
        [defect.caps for defect in library.defects], params, calibration
    )
    tables = [
        table
        for entry in compiled
        for windows in entry.lookup_tables()
        for *_, table in windows
    ]
    by_content = {}
    for table in tables:
        assert by_content.setdefault(table, table) is table
    assert len(by_content) < len(tables)
    for entry in compiled[:5]:
        fresh = entry.space.lookup_tables(entry.corrupting, {})
        assert fresh == entry.lookup_tables()


def test_perturbed_zero_couplings_share_one_object(nominal):
    caps, _, _ = nominal
    n = caps.wire_count
    first = caps.perturbed([[1.5] * n for _ in range(n)])
    second = caps.perturbed([[2.5] * n for _ in range(n)])
    assert first.coupling[0][WIDTH - 1] is second.coupling[0][WIDTH - 1]
    # The shared zero keeps value, sign and repr of the product.
    factors = [[1.0] * n for _ in range(n)]
    factors[0][WIDTH - 1] = factors[WIDTH - 1][0] = -0.0
    signed = caps.perturbed(factors)
    for row, nominal_row, factor_row in zip(
        signed.coupling, caps.coupling, factors
    ):
        for value, base, factor in zip(row, nominal_row, factor_row):
            assert repr(value) == repr(base * factor)
