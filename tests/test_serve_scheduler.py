"""Deterministic (fake-clock) tests of the micro-batch scheduler."""

import pytest

from repro.serve.scheduler import (
    AdaptiveDeadlinePolicy,
    Batch,
    MicroBatchScheduler,
)


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_scheduler(max_batch=4, max_wait_us=1000.0, min_wait_us=50.0):
    return MicroBatchScheduler(
        max_batch=max_batch,
        policy=AdaptiveDeadlinePolicy(
            max_wait_us=max_wait_us, min_wait_us=min_wait_us
        ),
    )


class TestFlushOnSize:
    def test_batch_returned_exactly_at_max_batch(self, clock):
        sched = make_scheduler(max_batch=3)
        assert sched.submit("k", 1, clock()) is None
        assert sched.submit("k", 2, clock()) is None
        batch = sched.submit("k", 3, clock())
        assert isinstance(batch, Batch)
        assert batch.entries == [1, 2, 3]
        assert batch.trigger == "size"
        assert len(sched) == 0
        assert sched.next_deadline() is None

    def test_order_preserved_within_batch(self, clock):
        sched = make_scheduler(max_batch=5)
        for i in range(4):
            assert sched.submit("k", i, clock.advance(1e-6)) is None
        batch = sched.submit("k", 4, clock.advance(1e-6))
        assert batch.entries == [0, 1, 2, 3, 4]

    def test_keys_batch_independently(self, clock):
        sched = make_scheduler(max_batch=2)
        assert sched.submit("a", "a0", clock()) is None
        assert sched.submit("b", "b0", clock()) is None
        batch = sched.submit("a", "a1", clock())
        assert (batch.key, batch.entries) == ("a", ["a0", "a1"])
        assert len(sched) == 1  # b's queue untouched

    def test_max_batch_one_always_flushes(self, clock):
        sched = make_scheduler(max_batch=1)
        batch = sched.submit("k", "only", clock())
        assert batch.entries == ["only"] and batch.trigger == "size"


class TestFlushOnDeadline:
    def test_not_due_before_deadline(self, clock):
        sched = make_scheduler(max_batch=10, max_wait_us=1000.0)
        sched.submit("k", 1, clock())
        assert sched.poll(clock.advance(0.0005), 8) == []  # 500 µs < 1000 µs

    def test_due_after_deadline(self, clock):
        sched = make_scheduler(max_batch=10, max_wait_us=1000.0)
        sched.submit("k", 1, clock())
        sched.submit("k", 2, clock.advance(0.0001))
        batches = sched.poll(clock.advance(0.001), 8)
        assert len(batches) == 1
        assert batches[0].entries == [1, 2]
        assert batches[0].trigger == "deadline"
        assert sched.poll(clock(), 8) == []  # flushed queues stay flushed

    def test_deadline_fixed_at_batch_open(self, clock):
        # later arrivals must not push an open batch's deadline out
        sched = make_scheduler(max_batch=10, max_wait_us=1000.0)
        sched.submit("k", 1, clock())
        opened = clock()
        for _ in range(5):
            sched.submit("k", object(), clock.advance(0.0001))
        assert sched.next_deadline() == pytest.approx(opened + 0.001)

    def test_next_deadline_is_earliest_across_keys(self, clock):
        sched = make_scheduler(max_batch=10, max_wait_us=1000.0)
        sched.submit("a", 1, clock())
        first = sched.next_deadline()
        sched.submit("b", 2, clock.advance(0.0002))
        assert sched.next_deadline() == first  # a's, the earlier one

    def test_poll_flushes_all_due_keys(self, clock):
        sched = make_scheduler(max_batch=10, max_wait_us=1000.0)
        sched.submit("a", 1, clock())
        sched.submit("b", 2, clock())
        flushed = {b.key for b in sched.poll(clock.advance(0.002), 8)}
        assert flushed == {"a", "b"}


class TestAdaptiveDeadline:
    def test_patient_before_any_observation(self):
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0)
        assert policy.wait_us(64) == 2000.0

    def test_fast_arrivals_shrink_the_wait(self, clock):
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0, min_wait_us=50.0)
        for _ in range(50):
            policy.observe_arrival(clock.advance(1e-6))  # 1 µs gaps
        # expected fill time = 1 µs * 63 * 0.75 ≈ 47 µs -> clamped to 50
        assert policy.wait_us(64) == 50.0

    def test_slow_arrivals_capped_at_max_wait(self, clock):
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0)
        for _ in range(10):
            policy.observe_arrival(clock.advance(0.1))  # 100 ms gaps
        assert policy.wait_us(64) == 2000.0

    def test_moderate_rate_lands_in_between(self, clock):
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0, min_wait_us=50.0)
        for _ in range(100):
            policy.observe_arrival(clock.advance(20e-6))  # 20 µs gaps
        wait = policy.wait_us(64)
        # ≈ 20 µs * 63 * 0.75 = 945 µs
        assert 50.0 < wait < 2000.0
        assert wait == pytest.approx(945.0, rel=0.05)

    def test_ewma_tracks_rate_changes(self, clock):
        policy = AdaptiveDeadlinePolicy()
        for _ in range(100):
            policy.observe_arrival(clock.advance(0.001))
        slow_gap = policy.ewma_gap_us
        for _ in range(100):
            policy.observe_arrival(clock.advance(1e-5))
        assert policy.ewma_gap_us < slow_gap

    def test_scheduler_deadline_adapts(self, clock):
        # after a fast burst, a newly opened batch gets a near-min deadline
        sched = make_scheduler(max_batch=4, max_wait_us=5000.0, min_wait_us=100.0)
        for i in range(40):  # 10 size-flushed batches at 1 µs gaps
            sched.submit("k", i, clock.advance(1e-6))
        sched.submit("k", "probe", clock.advance(1e-6))
        granted_us = (sched.next_deadline() - clock()) * 1e6
        assert granted_us == pytest.approx(100.0, abs=1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveDeadlinePolicy(max_wait_us=10.0, min_wait_us=20.0)

    def test_idle_gap_resets_ewma_instead_of_polluting(self, clock):
        # regression: a quiet period used to feed one giant gap into the
        # EWMA, leaving the policy maximally patient for the burst that
        # ends the idle spell
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0, min_wait_us=50.0)
        for _ in range(50):
            policy.observe_arrival(clock.advance(1e-6))  # 1 µs gaps
        assert policy.wait_us(64) == 50.0

        # 5 s idle >> IDLE_RESET_FACTOR * max_wait: forget, don't average
        policy.observe_arrival(clock.advance(5.0))
        assert policy.ewma_gap_us is None
        assert policy.wait_us(64) == 2000.0  # back to the patient prior

        # the burst after the idle spell re-converges immediately — the
        # idle gap left no residue in the average
        for _ in range(10):
            policy.observe_arrival(clock.advance(1e-6))
        assert policy.wait_us(64) == 50.0

    def test_steady_slow_traffic_still_adapts(self, clock):
        # gaps below the idle threshold must keep feeding the EWMA:
        # only genuine idle spells reset it
        policy = AdaptiveDeadlinePolicy(max_wait_us=2000.0, min_wait_us=50.0)
        for _ in range(200):
            policy.observe_arrival(clock.advance(0.01))  # 10 ms < 16 ms cutoff
        assert policy.ewma_gap_us == pytest.approx(10_000.0, rel=0.01)


class TestDrain:
    def test_drain_flushes_everything(self, clock):
        sched = make_scheduler(max_batch=10)
        sched.submit("a", 1, clock())
        sched.submit("a", 2, clock())
        sched.submit("b", 3, clock())
        batches = {b.key: b for b in sched.drain()}
        assert batches["a"].entries == [1, 2]
        assert batches["b"].entries == [3]
        assert all(b.trigger == "drain" for b in batches.values())
        assert len(sched) == 0
        assert sched.drain() == []

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch=0)
