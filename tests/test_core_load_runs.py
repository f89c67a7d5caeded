"""Load runs in screened replays: same outcomes, same error-model tallies.

The screened engine's replays execute runs of direct loads a whole
instruction at a time (``CpuMemorySystem.resume`` with a hang proof).
Under test:

* outcomes equal :class:`ExactEngine`'s on the E4 per-line campaign on
  both cores; load runs happen on the fast core and never on the FSM
  core or under the exact engine (the E5 counterpart is
  ``test_core_hang_proof.py::test_screened_equals_exact_on_e5``);
* the ``xtalk.model.*`` totals of a screened campaign, derived from the
  hooked bus's native counters, equal those of a per-cycle
  :class:`CrosstalkErrorModel` replay of the same runs;
* full-detail observability ticks per cycle, so ``cpu.state.*`` stays
  exact.
"""

from __future__ import annotations

import pytest

from repro import default_bus_setup
from repro.core.campaign import execute_defect
from repro.core.coverage import DefectSimulator
from repro.core.engine import ScreenedEngine
from repro.core.program_builder import SelfTestProgramBuilder
from repro.core.signature import make_system
from repro.obs import runtime as obs_runtime
from repro.soc.system import CpuMemorySystem
from repro.xtalk.error_model import MODEL_STATS, CrosstalkErrorModel


@pytest.fixture(scope="module")
def builder():
    return SelfTestProgramBuilder()


def _counter(snapshot, name: str) -> int:
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


def _per_line_programs(builder):
    programs = [builder.build_address_bus_program()]
    for line in range(12):
        faults = [f for f in builder.address_faults() if f.victim == line]
        if faults:
            programs.append(builder.build_address_bus_program(faults))
    return programs


@pytest.mark.parametrize("core", ["micro", "fast"])
def test_screened_equals_exact_on_e4_per_line(builder, core):
    setup = default_bus_setup(12, defect_count=40, seed=3)
    load_runs = 0
    for program in _per_line_programs(builder):
        with obs_runtime.session() as obs:
            exact = DefectSimulator(
                program, setup.params, setup.calibration, bus="addr",
                core=core,
            ).run_library(setup.library)
        assert _counter(obs.registry.snapshot(),
                        "coverage.engine.load_run_instructions") == 0
        with obs_runtime.session() as obs:
            screened = DefectSimulator(
                program, setup.params, setup.calibration, bus="addr",
                engine="screened", core=core,
            ).run_library(setup.library)
        assert screened == exact
        load_runs += _counter(obs.registry.snapshot(),
                              "coverage.engine.load_run_instructions")
    if core == "fast":
        assert load_runs >= 1
    else:
        assert load_runs == 0


@pytest.mark.parametrize("bus,width", [("addr", 12), ("data", 8)])
def test_model_totals_equal_a_per_cycle_model_replay(
    builder, monkeypatch, bus, width
):
    setup = default_bus_setup(width, defect_count=80, seed=2001)
    program = (
        builder.build_address_bus_program() if bus == "addr"
        else builder.build_data_bus_program()
    )
    engine = ScreenedEngine(
        program, setup.params, setup.calibration, bus, core="fast"
    )
    replays = []
    judged = {}
    resume = CpuMemorySystem.resume

    def recording_resume(system, *args, **kwargs):
        start = system.snapshot()
        result = resume(system, *args, **kwargs)
        replays.append((judged["defect"], start, result))
        return result

    monkeypatch.setattr(CpuMemorySystem, "resume", recording_resume)
    engine.prepare(setup.library)
    with obs_runtime.session() as obs:
        for defect in setup.library:
            judged["defect"] = defect
            execute_defect(engine, defect, bus)
    monkeypatch.undo()
    snapshot = obs.registry.snapshot()
    assert _counter(snapshot, "coverage.engine.load_run_instructions") >= 1

    totals = dict.fromkeys(MODEL_STATS, 0)
    for defect, start, result in replays:
        system = make_system(program, core="fast")
        system.restore(start)
        model = CrosstalkErrorModel(
            defect.caps, setup.params, setup.calibration
        )
        hooked = system.address_bus if bus == "addr" else system.data_bus
        hooked.install_corruption_hook(model.corrupt)
        while not system.cpu.halted and system.cycle < result.cycles:
            system.step()
        assert system.cycle == result.cycles
        for name, value in model.stats().items():
            totals[name] += value
    assert totals["corruptions"] > 0
    assert totals["glitch_errors"] + totals["delay_errors"] > 0
    for name in MODEL_STATS:
        assert _counter(snapshot, f"xtalk.model.{name}") == totals[name], name


def test_full_detail_ticks_per_cycle(builder):
    setup = default_bus_setup(8, defect_count=30, seed=2001)
    program = builder.build_data_bus_program()
    simulator = DefectSimulator(
        program, setup.params, setup.calibration, bus="data",
        engine="screened", core="fast",
    )
    with obs_runtime.session(detail="full") as obs:
        simulator.run_library(setup.library)
    snapshot = obs.registry.snapshot()
    assert _counter(snapshot, "coverage.engine.replayed") >= 1
    assert _counter(snapshot, "coverage.engine.load_runs") == 0
    occupancy = sum(
        entry["value"] for name, entry in snapshot.items()
        if name.startswith("cpu.state.")
    )
    assert occupancy == _counter(snapshot, "cpu.cycles") > 0
