"""Statistics primitives: counters, EWMA, histograms, CIs, traffic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.stats.ci import ratio_interval, t_interval
from repro.stats.counters import (Counter, Ewma, Histogram, RunningStat,
                                  StatGroup, geometric_mean)
from repro.stats.traffic import (FIGURE5_ORDER, MsgClass, TrafficMeter,
                                 bytes_per_miss, normalize, stacked_bar)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_counter_add_and_reset():
    counter = Counter("x")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_stat_group_creates_on_demand():
    group = StatGroup()
    group.add("misses", 3)
    group.add("misses")
    assert group.value("misses") == 4
    assert group.value("unknown") == 0
    assert group.as_dict() == {"misses": 4}


# ---------------------------------------------------------------------------
# RunningStat
# ---------------------------------------------------------------------------

def test_running_stat_mean_and_variance():
    stat = RunningStat()
    for value in [2.0, 4.0, 6.0]:
        stat.add(value)
    assert stat.mean == pytest.approx(4.0)
    assert stat.variance == pytest.approx(4.0)
    assert stat.min == 2.0 and stat.max == 6.0


def test_running_stat_merge_matches_single_stream():
    a, b, combined = RunningStat(), RunningStat(), RunningStat()
    data_a, data_b = [1.0, 5.0, 2.0], [7.0, 3.0]
    for value in data_a:
        a.add(value)
        combined.add(value)
    for value in data_b:
        b.add(value)
        combined.add(value)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    assert a.variance == pytest.approx(combined.variance)


def test_running_stat_merge_with_empty():
    a = RunningStat()
    a.add(3.0)
    a.merge(RunningStat())
    assert a.count == 1
    b = RunningStat()
    b.merge(a)
    assert b.mean == 3.0


# ---------------------------------------------------------------------------
# EWMA
# ---------------------------------------------------------------------------

def test_ewma_initial_sample_sets_value():
    ewma = Ewma(alpha=0.5)
    assert ewma.value is None
    ewma.add(10)
    assert ewma.value == 10


def test_ewma_moves_toward_samples():
    ewma = Ewma(alpha=0.5, initial=0.0)
    ewma.add(10)
    assert ewma.value == 5.0
    ewma.add(10)
    assert ewma.value == 7.5


def test_ewma_alpha_validated():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_percentiles():
    hist = Histogram(bucket_width=10)
    for value in range(100):
        hist.add(value)
    assert hist.percentile(50) == pytest.approx(45.0, abs=10)
    assert hist.percentile(100) >= hist.percentile(50)


def test_histogram_overflow_bucket_reports_observed_max():
    """Regression: tail values clamp into the overflow bucket, whose
    midpoint used to silently bound every percentile by
    bucket_width * max_buckets (5120 cycles at the defaults)."""
    hist = Histogram(bucket_width=10, max_buckets=512)
    for value in range(100):
        hist.add(value)
    hist.add(1_000_000)  # pathological tail latency
    assert hist.percentile(100) == 1_000_000.0
    assert hist.percentile(99.5) == 1_000_000.0
    # In-range percentiles still use bucket midpoints.
    assert hist.percentile(50) == pytest.approx(45.0, abs=10)


def test_histogram_overflow_only_for_clamped_tail():
    """All mass in the overflow bucket: even p1 reports the max rather
    than a midpoint below every observed value."""
    hist = Histogram(bucket_width=1, max_buckets=4)
    hist.add(100)
    hist.add(200)
    assert hist.percentile(1) == 200.0
    assert hist.percentile(100) == 200.0


def test_histogram_validates_inputs():
    with pytest.raises(ValueError):
        Histogram(bucket_width=0)
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.percentile(150)
    assert hist.percentile(50) == 0.0


# ---------------------------------------------------------------------------
# Geometric mean
# ---------------------------------------------------------------------------

def test_geometric_mean_basic():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)


def test_geometric_mean_validates():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def test_t_interval_single_sample_zero_width():
    ci = t_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0


def test_t_interval_contains_true_mean_for_tight_data():
    ci = t_interval([10.0, 10.2, 9.8, 10.1, 9.9])
    assert ci.low < 10.0 < ci.high
    assert ci.half_width < 0.5


@pytest.mark.parametrize("confidence,df,critical", [
    (0.95, 1, 12.7062047362),
    (0.95, 4, 2.7764451052),
    (0.95, 30, 2.0422724563),
    (0.99, 10, 3.1692726726),
])
def test_t_interval_critical_value_matches_tables(confidence, df, critical):
    samples = [float(i * i) for i in range(df + 1)]
    mean = sum(samples) / len(samples)
    sem = math.sqrt(sum((x - mean) ** 2 for x in samples)
                    / df / len(samples))
    ci = t_interval(samples, confidence)
    assert ci.half_width / sem == pytest.approx(critical, rel=1e-9)


def test_t_interval_requires_samples():
    with pytest.raises(ValueError):
        t_interval([])
    for confidence in (0.0, 1.0):
        with pytest.raises(ValueError):
            t_interval([1.0, 2.0], confidence)


def test_interval_overlap():
    a = t_interval([10.0, 10.1, 9.9])
    b = t_interval([10.05, 10.15, 9.95])
    c = t_interval([20.0, 20.1, 19.9])
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_ratio_interval_normalizes():
    ci = ratio_interval([10.0, 12.0], denominator_mean=10.0)
    assert ci.mean == pytest.approx(1.1)
    with pytest.raises(ValueError):
        ratio_interval([1.0], denominator_mean=0.0)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2,
                max_size=30))
def test_t_interval_mean_matches_arithmetic_mean(samples):
    ci = t_interval(samples)
    assert ci.mean == pytest.approx(sum(samples) / len(samples))
    assert ci.half_width >= 0.0


# ---------------------------------------------------------------------------
# Traffic meter
# ---------------------------------------------------------------------------

def test_traffic_meter_records_by_class():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.DATA, 72)
    meter.record_traversal(MsgClass.DATA, 72)
    meter.record_traversal(MsgClass.ACK, 8)
    assert meter.bytes[MsgClass.DATA] == 144
    assert meter.link_traversals[MsgClass.ACK] == 1
    assert meter.total_bytes == 152


def test_traffic_grouping_matches_figure5():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.WRITEBACK, 72)
    meter.record_traversal(MsgClass.DEACTIVATION, 8)
    grouped = meter.bytes_by_group()
    assert grouped["Data"] == 72          # writebacks count as data traffic
    assert grouped["Ind. Req."] == 8      # deactivations fold into requests
    assert set(grouped) == set(FIGURE5_ORDER)


def test_traffic_meter_merge():
    a, b = TrafficMeter(), TrafficMeter()
    a.record_traversal(MsgClass.DATA, 10)
    b.record_traversal(MsgClass.DATA, 5)
    b.record_drop(8)
    a.merge(b)
    assert a.bytes[MsgClass.DATA] == 15
    assert a.dropped_messages == 1


def test_bytes_per_miss():
    meter = TrafficMeter()
    meter.record_traversal(MsgClass.DATA, 100)
    per_miss = bytes_per_miss(meter, misses=4)
    assert per_miss["Data"] == 25.0
    assert bytes_per_miss(meter, misses=0)["Data"] == 0.0


def test_normalize_traffic():
    normalized = normalize({"Data": 50.0, "Ack": 50.0}, baseline_total=100.0)
    assert normalized == {"Data": 0.5, "Ack": 0.5}
    with pytest.raises(ValueError):
        normalize({}, baseline_total=0.0)


def test_stacked_bar_renders():
    bar = stacked_bar({"Data": 30.0, "Ack": 10.0}, width=40)
    assert "D" in bar and "a" in bar
    assert stacked_bar({}) == "(no traffic)"
