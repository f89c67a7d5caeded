"""The repository benchmark: defect campaigns timed end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11_cold --seed 2001 --seconds 20 --trace 0

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) runs in this one
serial process on the screened engine with default knobs and the paper's
1000-defect libraries, against fresh cache directories under
``.perfbench-work/``.  With ``--trace 0`` it reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from spans recorded around the package's entry points (``tracing.py``),
alternating traced and untraced campaign runs to measure the overhead.
Every outcome is checked against the ``ExactEngine`` oracle
(``oracle.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--results FILE`` appends the full record, host facts included, for
``compare.py``.  ``--spans FILE`` writes the traced spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

Interval = Tuple[float, float]  # perf_counter start and end


def wall_seconds(seconds: List[List[List[float]]]) -> float:
    """Seconds to run one library's campaigns, from a run's rounds.

    ``seconds[instance][round][program]``, corrected for host speed: per
    program the median over the rounds, summed over the programs and
    averaged over the libraries.
    """
    return statistics.fmean(
        sum(statistics.median(program) for program in zip(*rounds))
        for rounds in seconds
    )


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=2001,
                        help="workload seed (default: the paper library's 2001)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time budget in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--defects", type=int, default=1000,
                        help="defects per library (default: the paper's 1000)")
    parser.add_argument("--results", type=Path,
                        help="append the full result record to this JSONL file")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, write the recorded spans here")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and not args.workload:
        parser.error("--workload is required")
    if args.defects < 1 or args.seconds <= 0:
        parser.error("--defects and --seconds must be positive")
    return args


def host_facts(defects: int) -> Dict[str, object]:
    """What must match before two results files are compared."""
    import numpy

    from workloads import ENGINE

    try:
        from repro.cpu.microcode import resolve_core

        core = resolve_core("auto")
    except ImportError:
        core = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "core": core,
        "engine": ENGINE,
        "defects": defects,
    }


class Runner:
    """Sets up a workload's instances and times its campaign runs."""

    def __init__(self, workload, args, workdir: Path, tracer=None):
        self.workload = workload
        self.args = args
        self.workdir = workdir
        self.tracer = tracer
        self.instances: list = []
        self.setup_intervals: List[Interval] = []
        # Per instance, the outcome table of every campaign run.
        self.tables: Dict[int, list] = {}
        self._fresh = 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def set_up(self) -> None:
        """Set up every instance: one library each, timed one by one."""
        from workloads import instance_seed, set_up

        installed = self.tracer.installed() if self.tracer else nullcontext()
        with installed:
            for index in range(self.workload.instances):
                cache_dir = (
                    self.workdir / f"warm-{index}" if self.workload.warm else None
                )
                start = perf_counter()
                with self._span("bench.setup"):
                    instance = set_up(
                        self.workload, instance_seed(self.args.seed, index),
                        self.args.defects, cache_dir, span=self._span,
                    )
                self.setup_intervals.append((start, perf_counter()))
                self.instances.append(instance)
                self.tables[index] = []

    def campaign(self, index: int, traced: bool = False) -> List[Interval]:
        """Run instance ``index``'s campaigns once; each program's interval."""
        from workloads import outcome_table, run_campaigns

        instance = self.instances[index]
        if instance.cache_dir is not None:
            cache_dirs = [instance.cache_dir] * len(instance.specs)
        else:  # cold: a fresh, empty cache for every campaign
            cache_dirs = []
            for _ in instance.specs:
                self._fresh += 1
                cache_dirs.append(self.workdir / f"cold-{self._fresh}")
                cache_dirs[-1].mkdir(parents=True)
        if traced:
            with self.tracer.installed(), self.tracer.rep():
                results, intervals = run_campaigns(instance, cache_dirs)
        else:
            results, intervals = run_campaigns(instance, cache_dirs)
        if instance.cache_dir is None:
            for cache_dir in cache_dirs:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.tables[index].append(outcome_table(instance, results))
        return intervals

    def measure(self) -> List[List[List[Interval]]]:
        """Rounds over every instance while they fit the time budget.

        Every round runs each instance's campaigns once.  The first round
        always runs; another starts only if one more round as long as the
        last still fits in ``--seconds``.  Returns, per instance, per
        round, the interval of each program's campaign.
        """
        times: List[List[List[Interval]]] = [[] for _ in self.instances]
        start = perf_counter()
        while True:
            round_start = perf_counter()
            for index in range(len(self.instances)):
                times[index].append(self.campaign(index))
            last = perf_counter() - round_start
            if perf_counter() - start + last > self.args.seconds:
                return times

    def measure_traced(self) -> Tuple[List[float], List[float]]:
        """Alternate traced and untraced runs on the same instance.

        The first run of all is traced, so the traced run sees the
        process's memory peak being set.  Pairs cycle over the instances
        while one more pair fits the time budget, as rounds do in
        :meth:`measure`.  Returns the traced and the untraced campaign-run
        seconds.
        """
        traced: List[float] = []
        untraced: List[float] = []
        start = perf_counter()
        pair = 0
        while True:
            pair_start = perf_counter()
            index = pair % len(self.instances)
            for is_traced in ((True, False) if pair % 2 == 0 else (False, True)):
                seconds = sum(
                    end - begin
                    for begin, end in self.campaign(index, traced=is_traced)
                )
                (traced if is_traced else untraced).append(seconds)
            pair += 1
            last = perf_counter() - pair_start
            if perf_counter() - start + last > self.args.seconds:
                return traced, untraced

    def check(self, digests: dict):
        """``(attempted, failed)`` judgments over every campaign run."""
        from oracle import count_failures, oracle_reference

        attempted = failed = 0
        for index, instance in enumerate(self.instances):
            tables = self.tables[index]
            if not tables:
                continue
            first = tables[0]
            references = oracle_reference(
                self.workload.campaign, instance, first,
                self.workdir / "oracle", digests,
            )
            for table in tables:
                attempted += sum(len(outcomes) for outcomes in table.values())
                failed += count_failures(table, references, first)
        return attempted, failed


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def measure_end_to_end(runner: Runner) -> Tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures they come from."""
    from hostspeed import SpeedProbe
    from tracing import peak_rss_mb

    with SpeedProbe() as probe:
        runner.set_up()
        intervals = runner.measure()
    peak_mb = peak_rss_mb()
    campaign_s = [
        [[probe.seconds(*i) for i in rnd] for rnd in rounds] for rounds in intervals
    ]
    setup_s = [probe.seconds(*i) for i in runner.setup_intervals]
    values = {
        "wall_s": wall_seconds(campaign_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_mb,
    }
    raw = {
        "campaign_seconds": campaign_s,
        "campaign_host_seconds": [
            [[end - start for start, end in rnd] for rnd in rounds]
            for rounds in intervals
        ],
        "setup_seconds": setup_s,
        "setup_host_seconds": [end - start for start, end in runner.setup_intervals],
        "probe_samples": len(probe.durations),
    }
    return values, raw


def measure_layers(runner: Runner, baseline_mb: float) -> dict:
    """The per-layer metrics of a traced run."""
    from tracing import layer_metrics, peak_rss_mb, rep_wall_s

    runner.set_up()
    _, untraced = runner.measure_traced()
    return layer_metrics(
        runner.tracer,
        untraced_wall_s=statistics.fmean(untraced),
        traced_wall_s=statistics.fmean(rep_wall_s(runner.tracer)),
        baseline_mb=baseline_mb,
        peak_mb=peak_rss_mb(),
    )


def run(args: argparse.Namespace, workdir: Path) -> dict:
    from oracle import load_digests
    from tracing import LAYER_METRICS, Tracer, peak_rss_mb
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    baseline_mb = peak_rss_mb()
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, args, workdir, tracer)
    started = time.time()
    raw: dict = {}
    if args.trace:
        values = measure_layers(runner, baseline_mb)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values, raw = measure_end_to_end(runner)
        units = END_TO_END_UNITS
    attempted, failed = runner.check(load_digests())

    unknown = sorted(set(declared) - set(values))
    if unknown:
        raise SystemExit(f"perfbench: BENCHMARK.json declares unknown metrics {unknown}")
    metrics = {}
    for name, unit in declared.items():
        if units[name] != unit:
            raise SystemExit(
                f"perfbench: {name} is measured in {units[name]}, "
                f"BENCHMARK.json says {unit}"
            )
        entry = {"value": values[name], "unit": unit}
        if values[name] is None:
            entry["absent"] = True
        metrics[name] = entry
    if args.spans and tracer is not None:
        from tracing import span_rows

        with open(args.spans, "w") as handle:
            for row in span_rows(tracer):
                handle.write(json.dumps(row) + "\n")
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "started": started,
        "seconds": args.seconds,
        "instances": workload.instances,
        "runs": [len(tables) for tables in runner.tables.values()],
        "host": host_facts(args.defects),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "absent_layers": tracer.absent if tracer else [],
        "metrics": metrics,
        # Every computed value, declared or not.
        "all_metrics": values,
        **raw,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import ENGINE_KNOBS, WORKLOADS

    for knob in ENGINE_KNOBS:
        os.environ.pop(knob, None)
    if args.workload and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            from oracle import REFERENCE_FILE, generate

            generate(workdir / "reference-cache")
            print(f"wrote {REFERENCE_FILE}")
            return 0
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    for name, entry in record["metrics"].items():
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:34s} {value:>12s} {entry['unit']}")
    print(f"{'failed_frac':34s} {record['failed_frac']:>12.6g} "
          f"({record['failed']} of {record['attempted']} judgments)")
    print("host " + json.dumps(record["host"], sort_keys=True))
    if args.results:
        with open(args.results, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
