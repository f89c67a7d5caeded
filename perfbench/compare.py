"""Compare two benchmark results files: parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --results`` appended, one per run.
Run the two sides in alternating pairs (parent, change, change, parent,
...), at least ten pairs per workload, on one host: the files' host facts
must match.

For every workload and metric, the runs of each side are paired in start
order, and the verdict follows the rule for small sandboxes:

better
    the change wins at least 9 of every 10 pairs (ties count for neither)
    and the medians differ by more than the parent's interquartile range;
worse
    for a metric with a bound, the change's median is worse than the
    parent's by more than the bound; without a bound, the parent wins as
    ``better`` requires the change to;
unresolved
    fewer than ten pairs; or the parent's own spread is wider than the
    bound and not every change run beats every parent run; or, without a
    bound, neither side wins clearly;
unchanged
    otherwise (without a bound, only when every value repeats exactly).

Exit status: 0, or 1 when any verdict is ``worse``, or 2 when the files
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Tuple[str, str]:
    """``(verdict, reason)`` for one workload and metric.

    ``parent`` and ``change`` are in run start order; run ``i`` of one
    side is paired with run ``i`` of the other.
    """
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved", f"{len(pairs)} pairs, need {MIN_PAIRS}"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (c_median - p_median)  # > 0: the change is better
    won = f"change won {wins}/{len(pairs)} pairs"
    if wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "better", f"{won}; median gap exceeds the parent's IQR"
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and -gain > c_q3 - c_q1:
            return "worse", f"parent won {losses}/{len(pairs)} pairs"
        if len(set(parent) | set(change)) == 1:
            return "unchanged", "every value repeats exactly"
        return "unresolved", f"{won}; no bound to call it unchanged"
    if p_median == 0:
        return "unresolved", "parent median is 0"
    spread = (p_q3 - p_q1) / abs(p_median)
    if spread > bound:
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return "unchanged", "every change run beats every parent run"
        return "unresolved", (
            f"parent spread {spread:.1%} is wider than the bound {bound:.0%}"
        )
    if -gain / abs(p_median) > bound:
        return "worse", f"median worse by more than the bound {bound:.0%}"
    return "unchanged", f"{won}; within the bound {bound:.0%}"


def load_records(path: Path) -> List[dict]:
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if not records:
        raise ValueError(f"{path}: no records")
    return sorted(records, key=lambda record: record["started"])


def host_of(records: List[dict], path: Path) -> dict:
    hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(hosts) > 1:
        raise ValueError(f"{path}: records come from different hosts")
    return records[0]["host"]


def series(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values in run order."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for name, entry in record["metrics"].items():
            if entry["value"] is not None:
                out.setdefault((record["workload"], name), []).append(entry["value"])
    return out


def metric_specs(benchmark: dict) -> Dict[str, dict]:
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update({m["name"]: m for m in benchmark["per_layer"]})
    return specs


def compare(parent: List[dict], change: List[dict], benchmark: dict) -> List[dict]:
    specs = metric_specs(benchmark)
    parent_series, change_series = series(parent), series(change)
    rows = []
    for key in sorted(set(parent_series) & set(change_series)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        p, c = parent_series[key], change_series[key]
        result, reason = verdict(p, c, spec["better"], spec.get("bound"))
        p_median, c_median = statistics.median(p), statistics.median(c)
        ratio = c_median / p_median if p_median else float("nan")
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": spec["unit"],
            "parent": quartiles(p),
            "change": quartiles(c),
            "ratio": ratio,
            "verdict": result,
            "reason": reason,
        })
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':32s} {'parent median [Q1, Q3]':>30s} "
        f"{'change median [Q1, Q3]':>30s}  ratio (change / parent)  verdict"
    ]
    for row in rows:
        unit = row["unit"]

        def cell(q: Tuple[float, float, float]) -> str:
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"

        ratio = (
            f"{row['ratio']:.3f} ({row['change'][1]:.4g} / {row['parent'][1]:.4g})"
        )
        lines.append(
            f"{row['workload']:14s} {row['metric']:32s} {cell(row['parent']):>30s} "
            f"{cell(row['change']):>30s}  {ratio:23s}  {row['verdict']}: "
            f"{row['reason']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two results files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        parent = load_records(args.parent)
        change = load_records(args.change)
        parent_host = host_of(parent, args.parent)
        change_host = host_of(change, args.change)
        benchmark = json.loads(BENCHMARK_FILE.read_text())
    except (OSError, ValueError, KeyError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    if parent_host != change_host:
        differ = sorted(
            k for k in set(parent_host) | set(change_host)
            if parent_host.get(k) != change_host.get(k)
        )
        print(f"compare: host facts differ ({', '.join(differ)}); "
              "runs from different hosts are not compared", file=sys.stderr)
        return 2
    rows = compare(parent, change, benchmark)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
