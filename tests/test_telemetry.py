"""The metrics registry: counters, gauges, histograms, rendering."""

import json
import sys
import threading

import pytest

from repro.bench.reporting import format_metrics
from repro.config import TelemetryConfig
from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("x") is c  # get-or-create

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_stats(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.002, 0.002, 0.02, 0.2, 2.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 5
        assert d["total_s"] == pytest.approx(2.224)
        assert d["min_s"] == pytest.approx(0.002)
        assert d["max_s"] == pytest.approx(2.0)
        assert d["mean_s"] == pytest.approx(2.224 / 5)
        assert d["min_s"] <= d["p50_s"] <= d["p95_s"] <= d["max_s"]
        assert sum(d["buckets"].values()) == 5

    def test_default_buckets_resolve_sub_millisecond_stages(self):
        """Cleanup and tracking take about 0.2 ms a frame at 120x160;
        with a first bucket of 1 ms their p50 read as an interpolation
        inside [0, 1 ms]."""
        h = MetricsRegistry().histogram("stage_s")
        for _ in range(90):
            h.observe(0.0002)
        for _ in range(10):
            h.observe(0.002)
        d = h.to_dict()
        assert d["buckets"]["le_0.0003"] == 90
        assert 0.0001 <= d["p50_s"] <= 0.0003

    def test_bucket_bounds_are_inclusive(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.0, 1e-5, 3e-4, 30.0, 31.0):
            h.observe(v)
        b = h.to_dict()["buckets"]
        assert b["le_1e-05"] == 2
        assert b["le_0.0003"] == 1
        assert b["le_30"] == 1
        assert b["le_inf"] == 1

    def test_histogram_empty(self):
        d = MetricsRegistry().histogram("lat").to_dict()
        assert d["count"] == 0
        assert d["p95_s"] == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("lat").quantile(1.5)

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")
        with pytest.raises(ConfigError):
            reg.histogram("x")

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("")

    def test_timer_records(self):
        reg = MetricsRegistry()
        with reg.time("op"):
            pass
        assert reg.histogram("op").count == 1

    def test_timer_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.time("op"):
                raise RuntimeError("boom")
        assert reg.histogram("op").count == 1


class TestRegistry:
    def test_snapshot_shape_and_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        reg.histogram("c").observe(0.01)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["gauges"] == {"b": 2.0}
        assert snap["histograms"]["c"]["count"] == 1
        json.dumps(snap)  # JSON-ready

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert list(reg.names()) == ["a", "b"]

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(TelemetryConfig(enabled=False))
        reg.counter("a").inc(10)
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(5.0)
        with reg.time("d"):
            pass
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestDelta:
    def test_delta_since_none_equals_totals(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.histogram("h").observe(0.5)
        d = reg.delta()
        assert d["counters"]["a"] == 3
        assert d["histograms"]["h"]["count"] == 1
        assert d["histograms"]["h"]["mean_s"] == pytest.approx(0.5)

    def test_delta_chains_via_end(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        first = reg.delta()
        reg.counter("a").inc(4)
        reg.counter("fresh").inc()  # registered after the baseline
        second = reg.delta(first["end"])
        assert second["counters"]["a"] == 4
        assert second["counters"]["fresh"] == 1
        assert second["end"]["counters"]["a"] == 7

    def test_gauges_are_point_in_time(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(5.0)
        base = reg.delta()
        reg.gauge("depth").set(2.0)
        assert reg.delta(base["end"])["gauges"]["depth"] == 2.0

    def test_histogram_window_stats(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        base = reg.delta()
        reg.histogram("h").observe(3.0)
        reg.histogram("h").observe(5.0)
        win = reg.delta(base["end"])["histograms"]["h"]
        assert win["count"] == 2
        assert win["total_s"] == pytest.approx(8.0)
        assert win["mean_s"] == pytest.approx(4.0)

    def test_rates_per_frame(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(6)
        d = reg.delta(frames=3)
        assert d["frames"] == 3
        assert d["rates_per_frame"]["a"] == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            reg.delta(frames=0)

    def test_delta_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        json.dumps(reg.delta(frames=1))


class TestConcurrency:
    def test_to_dict_reads_multifield_state_under_the_lock(self):
        """Regression: ``to_dict()`` held the instrument lock only for
        the bucket copy and read count/total (and derived the mean and
        quantiles) after releasing it, so a snapshot racing a writer
        could pair a bucket state with a later count. The window is a
        few bytecodes wide — far too narrow to catch reliably by
        racing threads — so this probes the locking discipline
        directly: every read of the multi-field state during a
        snapshot must happen while the instrument lock is held."""
        from repro.telemetry.registry import LatencyHistogram

        naked_reads = []

        class Probe(LatencyHistogram):
            @property
            def count(self):
                if not self._lock.locked():
                    naked_reads.append("count")
                return LatencyHistogram.count.__get__(self)

            @count.setter
            def count(self, value):
                LatencyHistogram.count.__set__(self, value)

            @property
            def total(self):
                if not self._lock.locked():
                    naked_reads.append("total")
                return LatencyHistogram.total.__get__(self)

            @total.setter
            def total(self, value):
                LatencyHistogram.total.__set__(self, value)

        hist = Probe(TelemetryConfig().latency_buckets_s)
        for v in (0.002, 0.02, 0.2):
            hist.observe(v)
        naked_reads.clear()  # only the snapshot path is under test
        d = hist.to_dict()
        assert d["count"] == 3
        assert sum(d["buckets"].values()) == 3
        assert naked_reads == [], (
            f"snapshot read {sorted(set(naked_reads))} outside the "
            "instrument lock"
        )

    def test_histogram_snapshot_never_tears(self):
        """Regression: ``to_dict()`` held the instrument lock only
        while copying the buckets, then read count/total and derived
        the quantiles from post-release state — a snapshot racing
        writers could report a count inconsistent with its own bucket
        sum. Every field must come from one lock acquisition."""
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        stop = threading.Event()

        def writer(k: int) -> None:
            values = [0.001 * ((i + k) % 40 + 1) for i in range(64)]
            while not stop.is_set():
                for v in values:
                    hist.observe(v)

        threads = [
            threading.Thread(target=writer, args=(k,), daemon=True)
            for k in range(4)
        ]
        # A tiny switch interval forces thread preemption between
        # nearly every bytecode, so an unlocked multi-field read tears
        # within a few hundred snapshots instead of once a blue moon.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        self._stress(hist, threads, stop, old_interval)

    def _stress(self, hist, threads, stop, old_interval) -> None:
        for t in threads:
            t.start()
        try:
            last_count = 0
            for _ in range(2000):
                d = hist.to_dict()
                assert sum(d["buckets"].values()) == d["count"]
                assert d["mean_s"] * d["count"] == pytest.approx(
                    d["total_s"]
                )
                assert d["count"] >= last_count  # counts only grow
                if d["count"]:
                    assert (
                        d["min_s"] <= d["p50_s"] <= d["p95_s"] <= d["max_s"]
                    )
                last_count = d["count"]
        finally:
            stop.set()
            sys.setswitchinterval(old_interval)
            for t in threads:
                t.join(10.0)

    def test_registry_snapshot_under_concurrent_writers(self):
        """A full-registry snapshot taken mid-write is internally
        consistent and JSON-serialisable."""
        reg = MetricsRegistry()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                reg.counter("frames").inc()
                reg.histogram("step_s").observe(0.01)
                reg.gauge("depth").set(1.0)

        threads = [
            threading.Thread(target=writer, daemon=True) for _ in range(3)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(100):
                snap = reg.snapshot()
                json.dumps(snap)  # always serialisable
                hist = snap["histograms"].get("step_s")
                if hist:
                    assert sum(hist["buckets"].values()) == hist["count"]
        finally:
            stop.set()
            for t in threads:
                t.join(10.0)


class TestTelemetryConfig:
    def test_defaults_valid(self):
        cfg = TelemetryConfig()
        assert cfg.enabled
        assert cfg.latency_buckets_s == tuple(sorted(cfg.latency_buckets_s))

    @pytest.mark.parametrize("buckets", [
        (), (0.0, 1.0), (2.0, 1.0), (1.0, 1.0), (-1.0,),
    ])
    def test_bad_buckets_rejected(self, buckets):
        with pytest.raises(ConfigError):
            TelemetryConfig(latency_buckets_s=buckets)


class TestFormatMetrics:
    def test_renders_all_sections(self):
        reg = MetricsRegistry()
        reg.counter("frames").inc(3)
        reg.gauge("depth").set(2.5)
        reg.histogram("step_s").observe(0.02)
        text = format_metrics(reg.snapshot())
        assert "frames" in text and "3" in text
        assert "depth" in text and "2.5" in text
        assert "step_s" in text and "p95 ms" in text

    def test_empty_snapshot(self):
        text = format_metrics(MetricsRegistry().snapshot())
        assert "no metrics recorded" in text


class TestHistogramRegressions:
    """Pinned fixes: overflow-bucket quantiles and bad observations."""

    def test_overflow_heavy_quantiles_interpolate(self):
        """With most observations past the last bound, p50 and p99 must
        spread across [last_bound, max], not both collapse to max."""
        from repro.telemetry.registry import LatencyHistogram

        h = LatencyHistogram(bounds=(0.01, 0.1))
        h.observe(0.005)
        for v in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 90.0):
            h.observe(v)  # 9 of 10 in the overflow bucket
        p50 = h.quantile(0.50)
        p99 = h.quantile(0.99)
        assert p50 != p99
        assert 0.1 <= p50 <= 90.0
        assert 0.1 <= p99 <= 90.0
        assert p50 < p99

    def test_all_overflow_quantiles_bounded(self):
        from repro.telemetry.registry import LatencyHistogram

        h = LatencyHistogram(bounds=(0.001,))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert 0.001 <= h.quantile(0.25) <= 4.0
        assert h.quantile(0.25) < h.quantile(0.75)
        assert h.quantile(1.0) == 4.0

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"), -1.0, -0.001,
    ])
    def test_bad_observation_rejected_without_state_change(self, bad):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.02)
        before = h.to_dict()
        with pytest.raises(ConfigError):
            h.observe(bad)
        after = h.to_dict()
        assert after == before  # rejection left no trace
        assert sum(after["buckets"].values()) == after["count"] == 1
