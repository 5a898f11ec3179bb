"""Seeded streams are byte-reproducible and shaped as declared."""

from collections import Counter

from benchmarks.ledger import streams
from benchmarks.ledger.workloads import WORKLOADS


def _stream(seed, name="mixed-keys", count=4000, horizon=None):
    w = WORKLOADS[name]
    return streams.make_stream(
        seed, w.name, count, keys=w.keys, zipf_s=w.zipf_s, mix=w.mix, pool=w.pool,
        blob_bytes={"ENCAPS": 32, "KEYGEN": 64}, horizon_s=horizon,
    )


def test_same_seed_same_digest_different_seed_different():
    assert streams.stream_digest(_stream(7)) == streams.stream_digest(_stream(7))
    assert streams.stream_digest(_stream(7)) != streams.stream_digest(_stream(8))
    # the workload name is part of the stream's identity
    assert streams.stream_digest(_stream(7)) != streams.stream_digest(
        _stream(7, "hot-encaps")
    )


def test_digest_is_pinned():
    # byte-reproducibility across machines and Python versions
    assert streams.stream_digest(_stream(1, count=64)) == (
        "dc932f26a65a769aa72503e3a7e88bab"
    )


def test_zipf_popularity_and_op_mix():
    stream = _stream(3, count=20000)
    keys = Counter(r.key for r in stream)
    # rank 1 gets 1 / H(128, 1.1) = 23.6% of the draws; the tail is long
    assert 0.21 < keys[0] / len(stream) < 0.26
    assert keys[0] > keys[1] > keys[3] > keys[15]
    assert len(keys) > 100
    ops = Counter(r.op for r in stream)
    assert abs(ops["ENCAPS"] / len(stream) - 0.60) < 0.02
    assert abs(ops["DECAPS"] / len(stream) - 0.35) < 0.02
    assert abs(ops["KEYGEN"] / len(stream) - 0.05) < 0.01
    assert all(len(r.blob) == {"ENCAPS": 32, "KEYGEN": 64, "DECAPS": 0}[r.op] for r in stream)
    assert all(0 <= r.item < 4 for r in stream)
    sampled = sum(r.verify for r in stream) / len(stream)
    assert abs(sampled - 1 / 64) < 0.005


def test_open_loop_schedule_has_a_fixed_count_of_sorted_arrivals():
    stream = _stream(5, "open-steady", count=1800, horizon=9.0)
    times = [r.at for r in stream]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 9.0
    assert Counter(r.key for r in stream).keys() == set(range(8))
    # closed loops carry no schedule
    assert {r.at for r in _stream(5)} == {0.0}


def test_cumulative_and_draw():
    cdf = streams.cumulative([1.0, 1.0, 2.0])
    assert cdf == [0.25, 0.5, 1.0]
    assert [streams.draw(cdf, u) for u in (0.0, 0.24, 0.25, 0.6, 0.999)] == [0, 0, 1, 2, 2]
