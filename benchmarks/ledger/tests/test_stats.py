"""Order statistics, the ten-beyond rule, repetition folding, span self time."""

import math

import pytest

from benchmarks.ledger import stats
from benchmarks.ledger.layers import load_metrics, op_metrics
from benchmarks.ledger.rig import Record


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 0.05) == 15
    assert stats.percentile(values, 0.30) == 20
    assert stats.percentile(values, 0.40) == 20
    assert stats.percentile(values, 0.50) == 35
    assert stats.percentile(values, 1.00) == 50
    assert stats.percentile(list(reversed(values)), 0.50) == 35  # sorts first


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


@pytest.mark.parametrize(
    ("n", "q", "beyond"), [(1000, 0.99, 10), (999, 0.99, 9), (100, 0.90, 10), (0, 0.5, 0)]
)
def test_samples_beyond(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(1000)), 0.99) == 989
    assert stats.tail(list(range(999)), 0.99) is None


def test_median_and_spread_of_repetitions():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.spread([10.0, 11.0, 12.0]) == pytest.approx(2 / 11)
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([0.0, 0.0]) == 0.0
    assert stats.spread([0.0, 1.0, 0.0]) == math.inf


def test_self_time_is_duration_minus_children():
    spans = [
        {"span_id": "p", "parent_id": None, "duration_us": 100.0},
        {"span_id": "a", "parent_id": "p", "duration_us": 30.0},
        {"span_id": "b", "parent_id": "p", "duration_us": 45.0},
        {"span_id": "c", "parent_id": "a", "duration_us": 10.0},
        {"span_id": "q", "parent_id": None, "duration_us": 7.0},
    ]
    assert stats.self_times(spans) == {
        "p": 25.0, "a": 20.0, "b": 45.0, "c": 10.0, "q": 7.0,
    }


def test_window_metrics_on_an_injected_timeline():
    # 2 s window; 1200 ENCAPS at 10 ms, 600 DECAPS at 30 ms, one failure
    records = [Record("ENCAPS", i / 600, i / 600 + 0.010, True) for i in range(1200)]
    records += [Record("DECAPS", i / 300, i / 300 + 0.030, True) for i in range(600)]
    records.append(Record("DECAPS", 1.0, 1.5, False))
    out = {**load_metrics(records, 2.0), **op_metrics(records)}
    assert out["ops_per_s"] == 900.0  # OK replies only, over the whole window
    assert out["op_p50_ms"] == pytest.approx(10.0)
    assert out["encaps_p50_ms"] == pytest.approx(10.0)
    assert out["decaps_p50_ms"] == pytest.approx(30.0)
    assert out["encaps_p99_ms"] == pytest.approx(10.0)  # 12 samples beyond p99
    assert out["decaps_p99_ms"] is None  # 6 beyond: not enough
    assert out["keygen_p50_ms"] is None  # never sent
    assert out["fail_share"] == pytest.approx(1 / 1801)
    # failed and late requests miss the 25 ms limit
    assert out["within_limit_share"] == pytest.approx(1200 / 1801)


def test_a_stalled_stretch_moves_the_reported_numbers():
    # a closed loop of 64 callers at 1000 replies/s and 5 ms; everything
    # stalls for one second, then the 64 requests in flight all return
    times = [i / 1000 for i in range(8000)]
    records = [Record("ENCAPS", t, t + 0.005, True) for t in times if not 3 <= t < 4]
    records += [Record("ENCAPS", 3.0, 4.0, True) for _ in range(64)]
    out = load_metrics(records, 8.005)
    assert out["ops_per_s"] == pytest.approx(7064 / 8.005)  # the lost second shows
    assert out["op_p50_ms"] == pytest.approx(5.0)


def test_fixed_computations_take_their_median_per_kind():
    # three rounds of four fixed operations; pooled, the median would be
    # the slowest "b" sample (an edge); per kind it is each one's middle
    took_ms = {"a": (10, 11, 30), "b": (20, 22, 21), "c": (40, 44, 42), "d": (400, 90, 410)}
    records = [
        Record("ENCAPS", 0.0, ms / 1e3, True, kind)
        for kind, samples in took_ms.items()
        for ms in samples
    ]
    records.append(Record("ENCAPS", 0.0, 9.0, False, "a"))  # failures are not timed
    out = load_metrics(records, 3.0)
    assert out["ops_per_s"] == 4.0
    assert out["op_p50_ms"] == pytest.approx((21 + 42) / 2)  # kinds' medians: 11 21 42 400
