"""Measurement instruments: meters, recorders, trackers, counters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DropCounter, LatencyRecorder, ThroughputMeter


class TestThroughputMeter:
    def test_counts_bytes_and_events(self):
        meter = ThroughputMeter()
        meter.record(100, 0.0)
        meter.record(200, 10.0)
        assert meter.total_bytes == 300
        assert meter.count == 2

    def test_rate_over_span(self):
        meter = ThroughputMeter()
        meter.record(100, 0.0)
        meter.record(100, 100.0)
        # 200 bytes over 100 ns = 2 B/ns = 16 Gb/s.
        assert meter.rate_bps() == pytest.approx(16e9)

    def test_rate_with_explicit_window(self):
        meter = ThroughputMeter()
        meter.record(125, 40.0)
        assert meter.rate_bps(window_ns=1000.0) == pytest.approx(1e9)

    def test_empty_meter_rate_is_zero(self):
        assert ThroughputMeter().rate_bps() == 0.0

    def test_single_event_rate_is_zero_without_window(self):
        meter = ThroughputMeter()
        meter.record(100, 5.0)
        assert meter.rate_bps() == 0.0


class TestLatencyRecorder:
    def test_statistics(self):
        rec = LatencyRecorder()
        for v in [10.0, 20.0, 30.0, 40.0]:
            rec.record(v)
        assert len(rec) == 4
        assert rec.mean == pytest.approx(25.0)
        assert rec.minimum == 10.0
        assert rec.maximum == 40.0
        assert rec.percentile(50) == pytest.approx(25.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_percentile_bounds(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        summary = rec.summary()
        assert set(summary) == {"count", "mean_ns", "p50_ns", "p99_ns", "max_ns"}
        assert summary["count"] == 1.0

    def test_empty_summary_is_nan(self):
        # "no samples" must be distinguishable from "zero latency":
        # every statistic is NaN (null in JSON), the count stays 0.
        summary = LatencyRecorder().summary()
        assert summary["count"] == 0.0
        for key in ("mean_ns", "p50_ns", "p99_ns", "max_ns"):
            assert math.isnan(summary[key])

    def test_empty_statistics_are_nan(self):
        rec = LatencyRecorder()
        assert math.isnan(rec.mean)
        assert math.isnan(rec.minimum)
        assert math.isnan(rec.maximum)
        assert math.isnan(rec.percentile(50))


class TestDropCounter:
    def test_accumulates_by_reason(self):
        drops = DropCounter()
        drops.record(100, "overflow")
        drops.record(50, "overflow")
        drops.record(10, "policy")
        assert drops.dropped_items == 3
        assert drops.dropped_bytes == 160
        assert drops.by_reason == {"overflow": 2, "policy": 1}
        assert drops.any

    def test_loss_fraction(self):
        drops = DropCounter()
        drops.record(25)
        assert drops.loss_fraction(100) == pytest.approx(0.25)
        assert drops.loss_fraction(0) == 0.0

    def test_clean_counter(self):
        assert not DropCounter().any


class TestLatencyRecorderExtend:
    """Bulk ``extend`` is bit-identical to per-sample ``record``."""

    @staticmethod
    def _samples(n=3000, seed=9):
        import numpy as np

        rng = np.random.default_rng(seed)
        values = rng.exponential(250.0, n)
        values[::97] = 0.0
        return values.tolist()

    @staticmethod
    def _state(rec):
        return (
            rec.samples,
            len(rec),
            rec.mean,
            rec.percentile(50),
            rec.percentile(99),
            rec.minimum,
            rec.maximum,
            rec._sum,
        )

    @pytest.mark.parametrize("capacity", [None, 256])
    def test_matches_per_sample_record(self, capacity):
        values = self._samples()
        one_by_one = LatencyRecorder(capacity=capacity, seed=4)
        for value in values:
            one_by_one.record(value)
        bulk = LatencyRecorder(capacity=capacity, seed=4)
        # Uneven chunks: the result must not depend on how it is fed.
        for lo, hi in ((0, 1), (1, 200), (200, 201), (201, 2500), (2500, 3000)):
            bulk.extend(values[lo:hi])
        bulk.extend([])
        assert self._state(bulk) == self._state(one_by_one)
        assert all(type(sample) is float for sample in bulk.samples)

    def test_capped_reservoir_draws_the_same_random_sequence(self):
        values = self._samples(n=1000)
        a = LatencyRecorder(capacity=100, seed=1)
        b = LatencyRecorder(capacity=100, seed=1)
        for value in values:
            a.record(value)
        b.extend(values)
        assert a._random.random() == b._random.random()

    def test_negative_sample_raises_and_records_nothing(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0])
        with pytest.raises(ValueError, match="negative latency"):
            rec.extend([3.0, -1.0, 4.0])
        assert rec.samples == [1.0, 2.0] and len(rec) == 2


class TestLatencySummary:
    """``summary()`` converts the samples to an array once and must equal
    the per-statistic accessors bit for bit."""

    @staticmethod
    def _same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    def _check(self, rec):
        summary = rec.summary()
        expected = {
            "count": float(len(rec)),
            "mean_ns": rec.mean,
            "p50_ns": rec.percentile(50),
            "p99_ns": rec.percentile(99),
            "max_ns": rec.maximum,
        }
        assert summary.keys() == expected.keys()
        for key, value in expected.items():
            assert type(summary[key]) is float
            assert self._same(summary[key], value), key

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            max_size=400,
        ),
        st.sampled_from([None, 1, 7, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_accessors(self, values, capacity):
        rec = LatencyRecorder(capacity=capacity, seed=3)
        rec.extend(values)
        self._check(rec)

    @pytest.mark.parametrize("capacity", [None, 500])
    def test_matches_accessors_on_a_long_run(self, capacity):
        values = TestLatencyRecorderExtend._samples(n=20_000, seed=2)
        rec = LatencyRecorder(capacity=capacity, seed=5)
        rec.extend(values)
        self._check(rec)
        merged = LatencyRecorder(capacity=capacity, seed=5)
        merged.absorb(rec)
        self._check(merged)

    def test_empty_summary_is_nan(self):
        summary = LatencyRecorder().summary()
        assert summary["count"] == 0.0
        assert all(math.isnan(summary[k]) for k in ("mean_ns", "p50_ns", "p99_ns", "max_ns"))
