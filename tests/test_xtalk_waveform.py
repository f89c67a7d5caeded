"""Tests for the ODE waveform simulator and its agreement with the
lumped estimators (experiment E10's foundation)."""

import pytest

from repro.soc.bus import BusDirection
from repro.xtalk.capacitance import extract_capacitance
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams
from repro.xtalk.rc_model import worst_case_delay
from repro.xtalk.waveform import simulate_transition

WIDTH = 8
ONES = (1 << WIDTH) - 1


@pytest.fixture(scope="module")
def setup():
    caps = extract_capacitance(BusGeometry.uniform(WIDTH))
    return caps, ElectricalParams()


def test_quiet_bus_stays_quiet(setup):
    caps, params = setup
    result = simulate_transition(caps, params, 0x55, 0x55)
    for wire in range(WIDTH):
        assert abs(result.glitch_peak(wire)) < 1e-9


def test_switching_wires_settle_to_targets(setup):
    caps, params = setup
    result = simulate_transition(caps, params, 0x00, 0xFF)
    for wire in range(WIDTH):
        assert result.voltages[wire, -1] == pytest.approx(params.vdd, rel=1e-3)


def test_ma_glitch_polarity(setup):
    caps, params = setup
    victim = 4
    result = simulate_transition(caps, params, 0, ONES & ~(1 << victim))
    assert result.glitch_peak(victim) > 0.1  # visible upward glitch
    down = simulate_transition(caps, params, ONES, 1 << victim)
    assert down.glitch_peak(victim) < -0.1


def test_delay_monotone_in_aggressor_opposition(setup):
    caps, params = setup
    victim = 4
    bit = 1 << victim
    quiet = simulate_transition(caps, params, 0, bit)
    opposed = simulate_transition(caps, params, ONES & ~bit, bit)
    assert opposed.delay_to_half(victim) > quiet.delay_to_half(victim)


def test_lumped_delay_matches_ode_within_tolerance(setup):
    # The Miller-factor Elmore estimate should track the network solution
    # for the MA pattern (this is what justifies the lumped error model).
    caps, params = setup
    victim = 3
    bit = 1 << victim
    result = simulate_transition(caps, params, ONES & ~bit, bit)
    ode_delay = result.delay_to_half(victim)
    lumped = worst_case_delay(caps, params, victim, BusDirection.CPU_TO_MEM)
    assert ode_delay == pytest.approx(lumped, rel=0.25)


def test_delay_zero_for_stable_and_inf_for_unsettled(setup):
    caps, params = setup
    victim = 4
    result = simulate_transition(caps, params, 0, ONES & ~(1 << victim))
    assert result.delay_to_half(victim) == 0.0
    # A ridiculously short window leaves switching wires unsettled.
    short = simulate_transition(
        caps, params, ONES & ~(1 << victim), 1 << victim, t_end=1e-15, points=8
    )
    assert short.delay_to_half(victim) == float("inf")


def test_campaigns_do_not_import_scipy():
    """The waveform simulator (and scipy) loads only when asked for."""
    import subprocess
    import sys

    script = "\n".join([
        "import sys",
        "import repro",
        "from repro.core.campaign import CampaignSpec, run_campaign",
        "from repro.core.program_builder import SelfTestProgramBuilder",
        "setup = repro.default_data_bus_setup(defect_count=5)",
        "program = SelfTestProgramBuilder().build_data_bus_program()",
        "spec = CampaignSpec.from_setup(program, setup, bus='data',",
        "                               engine='screened', use_cache=False)",
        "assert len(run_campaign(spec).outcomes) == 5",
        "assert 'scipy' not in sys.modules, 'a campaign imported scipy'",
        "from repro.xtalk import WaveformResult, simulate_transition",
        "assert 'scipy' in sys.modules",
        "import repro.xtalk",
        "assert repro.xtalk.simulate_transition is simulate_transition",
    ])
    subprocess.run([sys.executable, "-c", script], check=True)
