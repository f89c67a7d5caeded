"""Outcome checks against the ``ExactEngine`` oracle.

``reference.json`` holds a SHA-256 digest of the exact engine's outcomes
for every program of every instance the benchmark sets up at the paper's
seed and library size.  A campaign run whose digest matches is correct on
every judgment.  When it does not match, or no digest applies (any other
seed or size), the defects are rechecked against ``ExactEngine`` through
the same package API: all of them after a digest mismatch, otherwise a
deterministic sample drawn from each outcome class.

Regenerate the digests (a few minutes) after a change that is meant to
change outcomes::

    python3 perfbench/run.py --write-reference
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro import run_campaign
from workloads import (
    CAMPAIGN_INSTANCES,
    PAPER_DEFECTS,
    PAPER_SEED,
    Instance,
    Outcome,
    Outcomes,
    build_programs,
    cache_env,
    instance_seed,
    make_setup,
    make_spec,
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Defects rechecked per outcome class (halted-detected, timed-out,
#: undetected) and program when no digest applies.
SAMPLE_PER_CLASS = 8

#: Seed kept out of tuning, for checking later performance claims on.
HELD_OUT_SEED = 4217

#: Defect index -> the oracle's outcome, for the defects checked.
Reference = Dict[int, Outcome]


def outcome_digest(outcomes: Sequence[Outcome]) -> str:
    canonical = json.dumps([[bool(d), bool(t), int(m)] for d, t, m in outcomes],
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def load_digests(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def stored_digest(
    digests: dict, campaign: str, seed: int, defects: int, label: str
) -> Optional[str]:
    if digests.get("defects") != defects:
        return None
    return digests.get("campaigns", {}).get(campaign, {}).get(str(seed), {}).get(label)


def sample(outcomes: Sequence[Outcome], seed: int, label: str) -> list:
    """Defect indices drawn from each outcome class, fixed by seed and label."""
    classes: Dict[str, list] = {"halted": [], "timed_out": [], "undetected": []}
    for index, (detected, timed_out, _) in enumerate(outcomes):
        key = "timed_out" if timed_out else "halted" if detected else "undetected"
        classes[key].append(index)
    rng = random.Random(f"{seed}:{label}")
    chosen = []
    for members in classes.values():
        chosen += rng.sample(members, min(SAMPLE_PER_CLASS, len(members)))
    return sorted(chosen)


def exact_outcomes(
    instance: Instance, label: str, indices: Sequence[int], cache_dir: Path
) -> Reference:
    spec = next(s for s in instance.specs if s.label == label)
    library = instance.setup.library
    exact = make_spec(
        spec.program, instance.setup, instance.bus, f"oracle:{label}",
        engine="exact", defects=[library[i] for i in indices],
    )
    with cache_env(cache_dir):
        result = run_campaign(exact)
    return {
        o.defect_index: (o.detected, o.timed_out, o.mismatches)
        for o in result.outcomes
    }


def oracle_reference(
    campaign: str,
    instance: Instance,
    outcomes: Outcomes,
    cache_dir: Path,
    digests: dict,
) -> Dict[str, Reference]:
    """The oracle's outcomes for the defects checked, per program label.

    ``outcomes`` is one campaign run of ``instance`` under test.
    """
    defects = len(instance.setup.library)
    references: Dict[str, Reference] = {}
    for label, table in outcomes.items():
        digest = stored_digest(digests, campaign, instance.seed, defects, label)
        if digest is not None and digest == outcome_digest(table):
            references[label] = dict(enumerate(table))
            continue
        indices = (
            range(defects) if digest is not None
            else sample(table, instance.seed, label)
        )
        references[label] = exact_outcomes(instance, label, indices, cache_dir)
    return references


def count_failures(
    outcomes: Outcomes, references: Dict[str, Reference], first: Outcomes
) -> int:
    """Judgments of one campaign run that disagree with the oracle.

    Defects the oracle did not check must at least repeat the instance's
    first run; a difference there means one of the two runs is wrong.
    """
    failed = 0
    for label, table in outcomes.items():
        reference = references[label]
        for index, outcome in enumerate(table):
            expected = reference.get(index, first[label][index])
            failed += outcome != expected
    return failed


def generate(cache_dir: Path, path: Path = REFERENCE_FILE) -> dict:
    """Digest the exact engine's outcomes at the paper's seed and size."""
    campaigns: Dict[str, dict] = {}
    with cache_env(cache_dir):
        for campaign, count in CAMPAIGN_INSTANCES.items():
            programs = build_programs(campaign)
            for index in range(count):
                seed = instance_seed(PAPER_SEED, index)
                bus, setup = make_setup(campaign, PAPER_DEFECTS, seed)
                row = campaigns.setdefault(campaign, {}).setdefault(str(seed), {})
                for label, program in programs:
                    spec = make_spec(program, setup, bus, label, engine="exact")
                    result = run_campaign(spec)
                    row[label] = outcome_digest(
                        [(o.detected, o.timed_out, o.mismatches)
                         for o in result.outcomes]
                    )
                    print(f"{campaign} seed {seed} {label}: {row[label][:12]}",
                          file=sys.stderr)
    digests = {
        "engine": "exact",
        "defects": PAPER_DEFECTS,
        "default_seed": PAPER_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "campaigns": campaigns,
    }
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests
