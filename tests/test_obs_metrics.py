"""MetricsRegistry: instruments, exporters, and the runtime bindings."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Stopwatch,
    TimingStats,
    collecting,
    get_metrics,
    get_tracer,
    measure,
    tracing,
)
from repro.obs.trace import NULL_TRACER, Tracer


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2.5)
        assert registry.counter("hits").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.cumulative() == [(1.0, 1), (10.0, 2), (math.inf, 3)]
        assert histogram.observations == 3
        assert histogram.total == 55.5
        assert histogram.mean == pytest.approx(18.5)

    def test_histogram_rejects_bad_buckets_and_nan(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h1", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="NaN"):
            registry.histogram("h2").observe(float("nan"))

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("thing")
        registry.histogram("other")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("other")

    def test_len_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.histogram("c")
        assert len(registry) == 2
        registry.reset()
        assert len(registry) == 0


class TestExporters:
    def test_summary_lists_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("fetches").inc(7)
        registry.histogram("sizes").observe(5)
        summary = registry.render_summary()
        assert "counters:" in summary and "fetches" in summary
        assert "histograms:" in summary and "count=1" in summary

    def test_empty_summary(self):
        assert MetricsRegistry().render_summary() == "metrics: none recorded"

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"n": 1.0}
        assert set(snapshot) == {"counters", "histograms"}

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRuntimeBindings:
    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_tracing_binds_and_restores(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_tracing_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with tracing():
                assert isinstance(get_tracer(), Tracer)
                raise RuntimeError
        assert get_tracer() is NULL_TRACER

    def test_collecting_scopes_a_fresh_registry(self):
        outer = get_metrics()
        with collecting() as registry:
            assert get_metrics() is registry
            assert registry is not outer
            registry.counter("scoped").inc()
        assert get_metrics() is outer


class TestStopwatch:
    def test_accumulates_across_windows(self):
        watch = Stopwatch()
        with watch:
            pass
        first = watch.elapsed
        with watch:
            pass
        assert watch.elapsed >= first
        assert not watch.running

    def test_elapsed_readable_while_running(self):
        watch = Stopwatch()
        watch.start()
        assert watch.running
        assert watch.elapsed >= 0.0
        watch.stop()

    def test_double_start_and_stray_stop_raise(self):
        watch = Stopwatch()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()
        with pytest.raises(RuntimeError):
            watch.stop()

    def test_time_call_returns_result_and_seconds(self):
        result, seconds = Stopwatch.time_call(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0.0

    def test_measure_median(self):
        stats = measure(lambda: None, repeats=3)
        assert len(stats.times) == 3
        assert stats.best <= stats.median <= max(stats.times)
        assert stats.median_ms == pytest.approx(stats.median * 1000.0)

    def test_timing_stats_even_median(self):
        stats = TimingStats(times=(1.0, 3.0))
        assert stats.median == 2.0
        assert stats.total == 4.0

    def test_timing_stats_worst(self):
        stats = TimingStats(times=(0.002, 0.005, 0.001))
        assert stats.worst == 0.005
        assert stats.worst_ms == pytest.approx(5.0)
        assert stats.best <= stats.median <= stats.worst
