"""Self-tests of the benchmark: tiny-library smoke runs, the oracle check,
tier accounting and the comparison script's verdicts.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import CAMPAIGN_SELF_METRICS, TIERS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 12


def run_bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_declares_what_run_measures():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_library_smoke(workload, trace, tmp_path):
    results = tmp_path / "results.jsonl"
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--defects", str(TINY),
        "--results", str(results),
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= TINY
    key = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK[key]]
    record = json.loads(results.read_text())
    assert record["seed"] == 3 and record["workload"] == workload
    assert {"nproc", "python", "numpy", "core", "engine", "defects"} <= set(
        record["host"]
    )
    assert not (ROOT / ".perfbench-work").exists()
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())
        return
    assert record["absent_layers"] == []
    values = {name: entry["value"] for name, entry in last["metrics"].items()}
    programs = 13 if workload.startswith("fig11") else 1
    # Per traced campaign run: every judgment falls in exactly one tier.
    assert values["core.engine.judgments_n"] == programs * TINY
    assert sum(values[f"core.engine.{tier}_n"] for tier in TIERS) == (
        values["core.engine.judgments_n"]
    )
    # Self times, remainder included, add up to the traced wall time.
    assert sum(values[name] for name in CAMPAIGN_SELF_METRICS) == pytest.approx(
        values["trace.wall_s"], rel=1e-9
    )
    if workload == "fig11_warm":
        assert values["core.cache.hit_ratio"] == 1.0
        assert values["core.engine.golden_cycles"] == 0
    else:
        assert values["core.cache.hit_ratio"] == 0.0
        assert values["core.engine.golden_cycles"] > 0


def test_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "databus_cold", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def tiny_fig11(tmp_path):
    instance = workloads.set_up(workloads.WORKLOADS["fig11_cold"], 9, TINY)
    caches = [tmp_path / spec.label for spec in instance.specs]
    results, _ = workloads.run_campaigns(instance, caches)
    return instance, workloads.outcome_table(instance, results), tmp_path / "oracle"


def _tampered(table):
    label = "full"
    outcomes = list(table[label])
    detected, timed_out, mismatches = outcomes[0]
    outcomes[0] = (not detected, timed_out, mismatches)
    return {**table, label: tuple(outcomes)}


def test_oracle_sample_catches_a_wrong_outcome(tiny_fig11):
    instance, table, cache = tiny_fig11
    references = oracle.oracle_reference("fig11", instance, table, cache, {})
    assert oracle.count_failures(table, references, table) == 0
    tampered = _tampered(table)
    references = oracle.oracle_reference("fig11", instance, tampered, cache, {})
    assert oracle.count_failures(tampered, references, tampered) == 1


def test_oracle_digest_mismatch_rechecks_every_defect(tiny_fig11):
    instance, table, cache = tiny_fig11
    digests = {
        "defects": TINY,
        "campaigns": {"fig11": {str(instance.seed): {
            label: oracle.outcome_digest(outcomes)
            for label, outcomes in table.items()
        }}},
    }
    references = oracle.oracle_reference("fig11", instance, table, cache, digests)
    assert all(len(ref) == TINY for ref in references.values())
    tampered = _tampered(table)
    references = oracle.oracle_reference(
        "fig11", instance, tampered, cache, digests
    )
    assert oracle.count_failures(tampered, references, tampered) == 1


def test_reference_digests_cover_every_instance_at_the_default_seed():
    digests = oracle.load_digests()
    assert digests["engine"] == "exact"
    assert digests["defects"] == workloads.PAPER_DEFECTS
    assert digests["held_out_seed"] != workloads.PAPER_SEED
    for campaign, count in workloads.CAMPAIGN_INSTANCES.items():
        labels = [label for label, _ in workloads.build_programs(campaign)]
        for index in range(count):
            seed = workloads.instance_seed(workloads.PAPER_SEED, index)
            assert sorted(digests["campaigns"][campaign][str(seed)]) == sorted(labels)


def test_speed_probe_scales_by_the_spin_time_around_an_interval():
    probe = hostspeed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [1e-4, 2e-4, 4e-4, 8e-4]
    reference = hostspeed.SPIN_REFERENCE_S
    assert probe.seconds(0.5, 2.5) == pytest.approx(2.0 * reference / 3e-4)
    # Too short to hold two samples: the neighbours on either side count.
    assert probe.factor(1.2, 1.4) == pytest.approx(reference / 3e-4)
    with probe:
        assert len(probe.durations) >= 5  # one sample taken on entry
    assert not probe._thread.is_alive()


# -- comparison verdicts ------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_better_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    faster = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1)[0] == "better"
    # Wins 8 of 10 pairs only.
    mixed = faster[:8] + [v * 1.01 for v in PARENT[8:]]
    assert compare.verdict(PARENT, mixed, "lower", 0.1)[0] == "unchanged"


def test_verdict_worse_beyond_the_bound():
    slower = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(PARENT, slower, "lower", 0.25)[0] == "unchanged"
    assert compare.verdict(PARENT, slower, "higher", 0.1)[0] == "better"


def test_verdict_unresolved_with_few_pairs_or_a_wide_spread():
    assert compare.verdict(PARENT[:9], PARENT[:9], "lower", 0.1)[0] == "unresolved"
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    # Wide spread, but every change run beats every parent run.
    assert compare.verdict(noisy, [4.0] * 10, "lower", 0.1)[0] in (
        "better", "unchanged"
    )


def test_verdict_without_a_bound():
    counts = [188.0] * 10
    assert compare.verdict(counts, counts, "lower", None)[0] == "unchanged"
    assert compare.verdict(counts, [100.0] * 10, "lower", None)[0] == "better"
    assert compare.verdict(counts, [300.0] * 10, "lower", None)[0] == "worse"
    assert compare.verdict(PARENT, PARENT[::-1], "lower", None)[0] == "unresolved"


def _records(values, host, workload="fig11_cold", start=0.0):
    return [
        {
            "workload": workload, "seed": i, "trace": 0, "started": start + i,
            "host": host,
            "metrics": {"wall_s": {"value": v, "unit": "s"}},
        }
        for i, v in enumerate(values)
    ]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_cli_reports_each_workload_with_ratio_and_base(tmp_path, capsys):
    host = {"nproc": 2, "python": "3.11.7"}
    parent = _write(tmp_path / "p.jsonl", _records(PARENT, host)
                    + _records(PARENT, host, "databus_cold"))
    change = _write(tmp_path / "c.jsonl", _records([v * 0.8 for v in PARENT], host)
                    + _records([v * 1.3 for v in PARENT], host, "databus_cold"))
    assert compare.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "wall_s" in line]
    assert len(rows) == 2
    assert rows[0].startswith("databus_cold") and "worse" in rows[0]
    assert rows[1].startswith("fig11_cold") and "better" in rows[1]
    assert "0.800 (8 / 10)" in rows[1]


def test_compare_cli_refuses_results_from_different_hosts(tmp_path):
    parent = _write(tmp_path / "p.jsonl", _records(PARENT, {"nproc": 2}))
    change = _write(tmp_path / "c.jsonl", _records(PARENT, {"nproc": 4}))
    assert compare.main([str(parent), str(change)]) == 2
