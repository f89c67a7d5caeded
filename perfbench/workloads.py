"""The benchmark's workloads, driven through the package-boundary API only.

A workload run sets up several *instances*: one defect library each, at a
seed derived from the run seed, plus the self-test programs the campaign
judges against it.  Averaging over instances keeps one unlucky library
(more hung replays, say) from setting a run's figure on its own.

Only ``default_*_setup``, ``SelfTestProgramBuilder``, ``CampaignSpec`` and
``run_campaign`` are called, with default engine knobs (no
``screen_backend`` or ``core`` argument), so refactors behind that
boundary cannot break the benchmark.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    CampaignSpec,
    SelfTestProgramBuilder,
    default_address_bus_setup,
    default_data_bus_setup,
    run_campaign,
)

#: The paper's library size and seed (Chen/Bai/Dey, DAC'01).
PAPER_DEFECTS = 1000
PAPER_SEED = 2001

#: Environment knobs that would change what the benchmark measures.  They
#: are cleared at start-up so every run uses the engine defaults; the cache
#: directory is set per campaign run.
ENGINE_KNOBS = ("REPRO_CACHE_DIR", "REPRO_GOLDEN_CACHE", "REPRO_FAST_CORE")
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

ENGINE = "screened"

#: One (program label -> per-defect (detected, timed_out, mismatches))
#: outcome table per campaign run.
Outcome = Tuple[bool, bool, int]
Outcomes = Dict[str, Tuple[Outcome, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: str  # "fig11" (E4, address bus) or "databus" (E5)
    warm: bool  # the golden-run cache is filled during set-up
    instances: int  # defect libraries per run


# fig11_*: 12 per-line programs plus the full program (13 000 judgments a
# library), dominated by hung replays and dedup matching.  The warm variant
# preloads golden captures and screen verdicts, so it bypasses the screen
# and exercises the cache load path.  databus_cold: one program, where
# screening is about half the time.  More libraries per run narrow the
# run-to-run spread but lengthen the run; fig11_warm's set-up also fills
# the cache, ~3 s per library.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig11_cold", "fig11", warm=False, instances=4),
        Workload("fig11_warm", "fig11", warm=True, instances=4),
        Workload("databus_cold", "databus", warm=False, instances=8),
    )
}

#: Instances each campaign needs reference digests for (the widest
#: workload of that campaign).
CAMPAIGN_INSTANCES = {
    campaign: max(
        w.instances for w in WORKLOADS.values() if w.campaign == campaign
    )
    for campaign in ("fig11", "databus")
}


def instance_seed(seed: int, index: int) -> int:
    """Library seed of instance ``index``; instance 0 uses ``seed`` itself."""
    return seed + index * 1_000_003


@dataclass
class Instance:
    """One library with its campaign specs (and, warm, its filled cache)."""

    seed: int
    bus: str
    setup: object  # repro.BusTestSetup
    specs: List[CampaignSpec]
    cache_dir: Optional[Path] = None


def build_programs(campaign: str) -> List[Tuple[str, object]]:
    """The campaign's self-test programs, labelled as the paper numbers them."""
    builder = SelfTestProgramBuilder()
    if campaign == "databus":
        return [("databus", builder.build_data_bus_program())]
    faults = builder.address_faults()
    programs = [
        (
            f"line{victim + 1}",
            builder.build_address_bus_program(
                [fault for fault in faults if fault.victim == victim]
            ),
        )
        for victim in range(builder.addr_width)
    ]
    programs.append(("full", builder.build_address_bus_program()))
    return programs


def make_setup(campaign: str, defects: int, seed: int):
    if campaign == "databus":
        return "data", default_data_bus_setup(defect_count=defects, seed=seed)
    return "addr", default_address_bus_setup(defect_count=defects, seed=seed)


def make_spec(
    program, setup, bus: str, label: str, engine: str = ENGINE,
    defects=None,
) -> CampaignSpec:
    return CampaignSpec(
        program=program,
        params=setup.params,
        calibration=setup.calibration,
        defects=tuple(setup.library if defects is None else defects),
        bus=bus,
        engine=engine,
        label=label,
    )


def set_up(
    workload: Workload, seed: int, defects: int,
    cache_dir: Optional[Path] = None, span=lambda name: nullcontext(),
) -> Instance:
    """Generate one library and build the programs; warm: fill the cache.

    The cache is filled the way a first campaign run leaves it: the golden
    capture stored by ``CampaignSpec.build_engine`` and the screen verdicts
    written back by the engine's ``prepare`` pass over the whole library.
    ``span(name)`` opens a trace span around the fill.
    """
    bus, setup = make_setup(workload.campaign, defects, seed)
    specs = [
        make_spec(program, setup, bus, label)
        for label, program in build_programs(workload.campaign)
    ]
    instance = Instance(seed=seed, bus=bus, setup=setup, specs=specs)
    if workload.warm:
        with span("core.cache.fill"), cache_env(cache_dir):
            for spec in specs:
                spec.build_engine().prepare(spec.defects)
        instance.cache_dir = cache_dir
    return instance


def run_campaigns(
    instance: Instance, cache_dirs: Sequence[Path]
) -> Tuple[list, List[Tuple[float, float]]]:
    """One campaign run: every spec of the instance, each against its cache.

    Returns the campaign results and each program's ``perf_counter``
    interval.
    """
    results, intervals = [], []
    for spec, cache_dir in zip(instance.specs, cache_dirs):
        with cache_env(cache_dir):
            start = perf_counter()
            results.append(run_campaign(spec))
            intervals.append((start, perf_counter()))
    return results, intervals


def outcome_table(instance: Instance, results: list) -> Outcomes:
    return {
        spec.label: tuple(
            (o.detected, o.timed_out, o.mismatches) for o in result.outcomes
        )
        for spec, result in zip(instance.specs, results)
    }


@contextmanager
def cache_env(path: Optional[Path]) -> Iterator[None]:
    """Point ``REPRO_CACHE_DIR`` at ``path`` for a ``with`` block."""
    previous = os.environ.get(CACHE_DIR_ENV)
    if path is not None:
        os.environ[CACHE_DIR_ENV] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous
