"""Unit tests for the metric primitives and the no-op mode."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import runtime as obs_runtime
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_REGISTRY,
    Timer,
)


def test_counter_semantics():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert counter.snapshot() == {"type": "counter", "value": 5}


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_holds_last_value():
    gauge = Gauge("g")
    gauge.set(0.25)
    gauge.set(0.75)
    assert gauge.value == 0.75
    assert gauge.snapshot()["value"] == 0.75


def test_timer_aggregates():
    timer = Timer("t")
    for sample in (100, 300, 200):
        timer.observe(sample)
    assert timer.count == 3
    assert timer.total_ns == 600
    assert timer.min_ns == 100
    assert timer.max_ns == 300
    assert timer.mean_ns == pytest.approx(200.0)
    snap = timer.snapshot()
    assert snap["type"] == "timer"
    assert snap["p50_ns"] in (100, 200, 300)


def test_timer_clamps_negative_and_bounds_reservoir():
    timer = Timer("t", reservoir_size=4)
    timer.observe(-5)
    assert timer.min_ns == 0
    for sample in range(10):
        timer.observe(sample)
    # Aggregates see everything; the reservoir keeps the newest window.
    assert timer.count == 11
    assert len(timer._reservoir) == 4
    assert timer.percentile(1.0) == 9


def test_empty_timer_percentile_is_none():
    assert Timer("t").percentile(0.5) is None


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    counter = registry.counter("cpu.cycles")
    assert registry.counter("cpu.cycles") is counter
    with pytest.raises(TypeError):
        registry.gauge("cpu.cycles")
    registry.gauge("coverage.progress")
    registry.timer("coverage.defect.replay")
    assert len(registry) == 3
    assert sorted(name for name, _ in registry) == [
        "coverage.defect.replay",
        "coverage.progress",
        "cpu.cycles",
    ]


def test_registry_bound_builds_once_per_registry():
    built = []

    def factory(registry):
        built.append(registry)
        return registry.counter("bound.runs")

    first, second = MetricsRegistry(), MetricsRegistry()
    assert first.bound(factory) is first.bound(factory)
    assert second.bound(factory) is not first.bound(factory)
    assert built == [first, second]


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("a").inc(2)
    registry.gauge("b").set(1.5)
    snap = registry.snapshot()
    assert snap == {
        "a": {"type": "counter", "value": 2},
        "b": {"type": "gauge", "value": 1.5},
    }


def test_null_registry_returns_shared_singletons():
    first = NULL_REGISTRY.counter("x")
    second = NULL_REGISTRY.counter("y")
    assert first is second
    first.inc(100)
    assert first.value == 0
    NULL_REGISTRY.gauge("g").set(3.0)
    NULL_REGISTRY.timer("t").observe(123)
    assert NULL_REGISTRY.snapshot() == {}


@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="abc.", min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    ),
    amounts=st.lists(st.integers(0, 1000), min_size=1, max_size=8),
)
def test_noop_hot_path_allocates_nothing(names, amounts):
    """With observability disabled, the instrumentation idiom
    ``registry().counter(name).inc(n)`` must not allocate."""
    assert obs_runtime.active() is None
    registry = obs_runtime.registry()
    pairs = list(zip(names, amounts))

    def exercise():
        for name, amount in pairs:
            registry.counter(name).inc(amount)
            registry.gauge(name).set(0.5)
            registry.timer(name).observe(amount)

    # Untraced dry run: warms bytecode specialization, string interning
    # and any other one-time retained state before measuring.
    exercise()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exercise()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after == before
