"""In-memory span tracing of the package's layers, from the benchmark's side.

:class:`Tracer` wraps the public entry points of each layer, named in the
one table :data:`ENTRY_POINTS`, and records a span per call: name, start,
end, parent, a tag and the process's peak RSS before and after.  Spans stay
in memory until :func:`layer_metrics` turns them into per-layer self times
(span time minus the time its child spans cover).

An entry point that no longer resolves marks its layer absent; nothing
else changes.  Untraced runs never install the tracer.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

# Span name, module, attribute path, and how the call is recorded:
#   span     - a plain span
#   check    - a span tagged with the engine tier that judged the defect
#   prepare  - a span tagged with the screen's unique-transition count
#   counters - not a span: the obs registry the engine counts tiers into
#              is redirected to the tracer while no obs session is active,
#              so counters work without switching the simulator's
#              instrumented hot path on.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.campaign.run_campaign", "repro.core.campaign", "run_campaign", "span"),
    ("core.campaign.fingerprint", "repro.core.campaign",
     "CampaignSpec.fingerprint", "span"),
    ("core.engine.golden_capture", "repro.core.engine",
     "capture_golden_with_trace", "span"),
    ("core.engine.build", "repro.core.engine", "ScreenedEngine.__init__", "span"),
    ("xtalk.screen.prepare", "repro.core.engine", "ScreenedEngine.prepare",
     "prepare"),
    ("core.engine.check", "repro.core.engine", "ScreenedEngine.check", "check"),
    ("core.cache.load", "repro.core.cache", "GoldenRunCache.load", "span"),
    ("core.cache.store", "repro.core.cache", "GoldenRunCache.store", "span"),
    ("core.cache.merge_verdicts", "repro.core.cache",
     "GoldenRunCache.merge_verdicts", "span"),
    ("core.program_builder.build", "repro.core.program_builder",
     "SelfTestProgramBuilder.build", "span"),
    ("xtalk.defects.library", "repro.xtalk.defects", "generate_defect_library",
     "span"),
    ("obs.counters", "repro.obs.runtime", "registry", "counters"),
)

#: Engine counters whose change classifies one ``ScreenedEngine.check``.
TIER_COUNTERS = (
    ("clean", "coverage.engine.screened_clean"),
    ("dedup", "coverage.engine.replay_deduped"),
    ("replay", "coverage.engine.replayed"),
)
#: Counters read per traced campaign run.
RUN_COUNTERS = (
    "coverage.engine.golden_cycles",
    "coverage.engine.golden_cache.hits",
    "coverage.engine.golden_cache.misses",
)

REP = "bench.rep"
SETUP = "bench.setup"
FILL = "core.cache.fill"

# Span record fields.
NAME, START, END, PARENT, TAG, RSS0, RSS1 = range(7)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module_name: str, path: str):
    """``(owner, attribute, value)`` for a dotted path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self.counters = MetricsRegistry()
        self.absent: List[str] = []
        self.run_counters: Dict[str, int] = {name: 0 for name in RUN_COUNTERS}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str, rss: bool = True) -> list:
        record = [name, 0, 0, self._stack[-1], None,
                  peak_rss_mb() if rss else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter_ns()
        return record

    def _close(self, record: list, rss: bool = True) -> None:
        record[END] = perf_counter_ns()
        self._stack.pop()
        if rss:
            record[RSS1] = peak_rss_mb()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    @contextmanager
    def rep(self) -> Iterator[list]:
        """A root span around one campaign run, with its counter deltas."""
        before = {n: self.counters.counter(n).value for n in RUN_COUNTERS}
        with self.span(REP) as record:
            yield record
        for name in RUN_COUNTERS:
            self.run_counters[name] += (
                self.counters.counter(name).value - before[name]
            )

    # -- wrappers -----------------------------------------------------

    def _wrap_span(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(record)

        return wrapper

    def _wrap_prepare(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            record = open_(name)
            try:
                return fn(engine, *args, **kwargs)
            finally:
                close(record)
                screen = getattr(engine, "screen", None)
                record[TAG] = getattr(screen, "unique_transitions", None)

        return wrapper

    def _wrap_check(self, name: str, fn):
        # Per-defect spans skip the RSS probes: 13 000 calls a campaign.
        open_, close = self._open, self._close
        tiers = [(tier, self.counters.counter(counter))
                 for tier, counter in TIER_COUNTERS]

        @functools.wraps(fn)
        def wrapper(engine, defect, *args, **kwargs):
            before = [counter.value for _, counter in tiers]
            record = open_(name, rss=False)
            try:
                result = fn(engine, defect, *args, **kwargs)
            finally:
                close(record, rss=False)
            tier = "unclassified"
            for (candidate, counter), value in zip(tiers, before):
                if counter.value != value:
                    tier = candidate
                    break
            if tier == "replay":
                tier = "replay_hang" if result.timed_out else "replay_halt"
            record[TAG] = tier
            return result

        return wrapper

    def _counter_registry(self, fn):
        from repro.obs import runtime

        counters = self.counters

        @functools.wraps(fn)
        def registry():
            obs = runtime.active()
            return obs.registry if obs is not None else counters

        return registry

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable entry point; record the ones that are not."""
        self.absent = []
        for name, module_name, path, kind in ENTRY_POINTS:
            resolved = _resolve(module_name, path)
            if resolved is None or (
                kind == "counters" and _resolve("repro.obs.runtime", "active") is None
            ):
                self.absent.append(name)
                continue
            owner, attribute, original = resolved
            if kind == "counters":
                wrapper = self._counter_registry(original)
            elif kind == "check":
                wrapper = self._wrap_check(name, original)
            elif kind == "prepare":
                wrapper = self._wrap_prepare(name, original)
            else:
                wrapper = self._wrap_span(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
            else:
                # Module-level functions are also bound under other names
                # (``from module import function``, here too): rebind every
                # alias in every loaded module.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None) or {}
                    for alias, value in list(namespace.items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, attribute: str, wrapper) -> None:
        had = attribute in vars(owner)
        self._patches.append((owner, attribute, getattr(owner, attribute), had))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, had in reversed(self._patches):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches = []

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Span tree -> per-layer metrics
# ---------------------------------------------------------------------------

TIERS = ("replay_hang", "replay_halt", "clean", "dedup")

#: Per-layer metric -> (unit, entry points it needs).
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    **{
        f"core.engine.{tier}_{suffix}": (unit, ("core.engine.check", "obs.counters"))
        for tier in TIERS
        for suffix, unit in (("s", "s"), ("n", "count"))
    },
    "core.engine.dedup_hit_ratio": ("ratio", ("core.engine.check", "obs.counters")),
    "core.engine.judgments_n": ("count", ("core.engine.check",)),
    "core.engine.golden_capture_s": ("s", ("core.engine.golden_capture",)),
    "core.engine.golden_cycles": ("cycles", ("obs.counters",)),
    "core.engine.build_s": ("s", ("core.engine.build",)),
    "xtalk.screen.screen_s": ("s", ("xtalk.screen.prepare",)),
    "xtalk.screen.unique_transitions": ("count", ("xtalk.screen.prepare",)),
    "xtalk.screen.clean_ratio": ("ratio", ("core.engine.check", "obs.counters")),
    "core.cache.load_s": ("s", ("core.cache.load",)),
    "core.cache.store_s": ("s", ("core.cache.store", "core.cache.merge_verdicts")),
    "core.cache.hit_ratio": ("ratio", ("obs.counters",)),
    "core.cache.fill_s": ("s", ()),
    "core.campaign.self_s": ("s", ("core.campaign.run_campaign",)),
    "core.campaign.fingerprint_s": ("s", ("core.campaign.fingerprint",)),
    "core.program_builder.build_s": ("s", ("core.program_builder.build",)),
    "xtalk.defects.library_s": ("s", ("xtalk.defects.library",)),
    "bench.unattributed_s": ("s", ()),
    "bench.setup_other_s": ("s", ()),
    "trace.wall_s": ("s", ()),
    "trace.setup_s": ("s", ()),
    "trace.untraced_wall_s": ("s", ()),
    "trace_overhead_frac": ("ratio", ()),
    "mem.baseline_mb": ("MB", ()),
    "mem.setup_raise_mb": ("MB", ()),
    "mem.screen_raise_mb": ("MB", ("xtalk.screen.prepare",)),
    "mem.campaign_raise_mb": ("MB", ()),
    "mem.other_raise_mb": ("MB", ()),
    "mem.peak_rss_mb": ("MB", ()),
}

#: Campaign-phase span name -> the self-time metric it adds to.  Spans not
#: listed here count toward ``bench.unattributed_s``.
SELF_TIME_METRIC = {
    "core.campaign.run_campaign": "core.campaign.self_s",
    "core.campaign.fingerprint": "core.campaign.fingerprint_s",
    "core.engine.golden_capture": "core.engine.golden_capture_s",
    "core.engine.build": "core.engine.build_s",
    "xtalk.screen.prepare": "xtalk.screen.screen_s",
    "core.cache.load": "core.cache.load_s",
    "core.cache.store": "core.cache.store_s",
    "core.cache.merge_verdicts": "core.cache.store_s",
}

#: The campaign-phase self-time metrics; with ``bench.unattributed_s``
#: they add up to ``trace.wall_s``.
CAMPAIGN_SELF_METRICS = tuple(
    [f"core.engine.{tier}_s" for tier in TIERS]
    + sorted(set(SELF_TIME_METRIC.values()))
    + ["bench.unattributed_s"]
)

#: Set-up span name -> its metric: self time for the layers, the whole span
#: for the benchmark's cache fill (whose children are campaign layers).
SETUP_METRIC = {
    "core.program_builder.build": "core.program_builder.build_s",
    "xtalk.defects.library": "xtalk.defects.library_s",
    FILL: "core.cache.fill_s",
}


def layer_metrics(
    tracer: Tracer,
    untraced_wall_s: float,
    traced_wall_s: float,
    baseline_mb: float,
    peak_mb: float,
) -> Dict[str, Optional[float]]:
    """Per-layer metrics, per traced campaign run (or per set-up).

    Campaign-phase layers are averaged over the ``bench.rep`` roots and
    set-up layers over the ``bench.setup`` roots.  A metric whose entry
    points did not resolve is ``None``.
    """
    spans = tracer.spans
    count = len(spans)
    duration = [s[END] - s[START] for s in spans]
    raised = [(s[RSS1] - s[RSS0]) if s[RSS0] is not None else 0.0 for s in spans]
    child_time = [0] * count
    child_raise = [0.0] * count
    root = list(range(count))
    for index, record in enumerate(spans):
        parent = record[PARENT]
        if parent >= 0:  # parents are recorded before their children
            child_time[parent] += duration[index]
            child_raise[parent] += raised[index]
            root[index] = root[parent]
    self_time = [duration[i] - child_time[i] for i in range(count)]

    def roots(name: str) -> List[int]:
        return [i for i in range(count) if spans[i][PARENT] < 0 and spans[i][NAME] == name]

    reps, setups = roots(REP), roots(SETUP)
    rep_set, setup_set = set(reps), set(setups)
    per_rep = 1.0 / max(1, len(reps))
    per_setup = 1.0 / max(1, len(setups))

    rep_ns = dict.fromkeys(CAMPAIGN_SELF_METRICS, 0)
    setup_ns = dict.fromkeys(SETUP_METRIC.values(), 0)
    tier_n = dict.fromkeys(TIERS, 0)
    judgments = unique_transitions = 0
    screen_raise = 0.0
    for index, record in enumerate(spans):
        name = record[NAME]
        if root[index] in rep_set:
            metric = SELF_TIME_METRIC.get(name, "bench.unattributed_s")
            if name == "core.engine.check":
                judgments += 1
                if record[TAG] in TIERS:
                    tier_n[record[TAG]] += 1
                    metric = f"core.engine.{record[TAG]}_s"
            elif name == "xtalk.screen.prepare":
                unique_transitions += record[TAG] or 0
                screen_raise += raised[index] - child_raise[index]
            rep_ns[metric] += self_time[index]
        elif root[index] in setup_set and name in SETUP_METRIC:
            setup_ns[SETUP_METRIC[name]] += (
                duration[index] if name == FILL else self_time[index]
            )

    metrics: Dict[str, Optional[float]] = {}
    metrics.update({k: ns * per_rep / 1e9 for k, ns in rep_ns.items()})
    metrics.update({k: ns * per_setup / 1e9 for k, ns in setup_ns.items()})
    metrics.update({f"core.engine.{t}_n": n * per_rep for t, n in tier_n.items()})
    replays = tier_n["replay_hang"] + tier_n["replay_halt"]
    deduped = tier_n["dedup"]
    metrics["core.engine.judgments_n"] = judgments * per_rep
    metrics["core.engine.dedup_hit_ratio"] = (
        deduped / (deduped + replays) if deduped + replays else 0.0
    )
    metrics["xtalk.screen.clean_ratio"] = (
        tier_n["clean"] / judgments if judgments else 0.0
    )
    metrics["xtalk.screen.unique_transitions"] = unique_transitions * per_rep
    counters = tracer.run_counters
    metrics["core.engine.golden_cycles"] = (
        counters["coverage.engine.golden_cycles"] * per_rep
    )
    hits = counters["coverage.engine.golden_cache.hits"]
    misses = counters["coverage.engine.golden_cache.misses"]
    metrics["core.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    setup_s = sum(duration[i] for i in setups) * per_setup / 1e9
    metrics["trace.setup_s"] = setup_s
    metrics["bench.setup_other_s"] = setup_s - sum(
        metrics[name] for name in SETUP_METRIC.values()
    )
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace_overhead_frac"] = (
        (traced_wall_s - untraced_wall_s) / untraced_wall_s
    )

    setup_raise = sum(raised[i] for i in setups)
    campaign_raise = sum(raised[i] for i in reps) - screen_raise
    metrics["mem.baseline_mb"] = baseline_mb
    metrics["mem.setup_raise_mb"] = setup_raise
    metrics["mem.screen_raise_mb"] = screen_raise
    metrics["mem.campaign_raise_mb"] = campaign_raise
    metrics["mem.other_raise_mb"] = (
        peak_mb - baseline_mb - setup_raise - screen_raise - campaign_raise
    )
    metrics["mem.peak_rss_mb"] = peak_mb

    absent = set(tracer.absent)
    for name, (_, needs) in LAYER_METRICS.items():
        if absent.intersection(needs):
            metrics[name] = None
    return metrics


def rep_wall_s(tracer: Tracer) -> List[float]:
    """Duration of every ``bench.rep`` root, in order."""
    return [
        (s[END] - s[START]) / 1e9 for s in tracer.spans
        if s[PARENT] < 0 and s[NAME] == REP
    ]


def span_rows(tracer: Tracer) -> Iterator[dict]:
    """The recorded spans as JSON-ready rows (times in ns from the first)."""
    origin = tracer.spans[0][START] if tracer.spans else 0
    for index, s in enumerate(tracer.spans):
        yield {
            "id": index,
            "name": s[NAME],
            "start_ns": s[START] - origin,
            "end_ns": s[END] - origin,
            "parent": s[PARENT],
            "tag": s[TAG],
        }
