"""Fake-clock tests of slot-aware dispatch and the no-wait rule.

``MicroBatchScheduler.poll(now, free)`` hands over at most ``free`` due
queues and keeps the rest open; a queue whose last batch left alone long
ago stops waiting for company.  Entries are ``(tier, tenant, name)``
tuples; nothing here sleeps or touches asyncio.
"""

import pytest

from repro.serve.scheduler import AdaptiveDeadlinePolicy, MicroBatchScheduler
from tests.test_serve_scheduler import FakeClock

MAX_WAIT_S = 1e-3


@pytest.fixture
def clock():
    return FakeClock()


def make_scheduler(max_batch=4, **hooks):
    return MicroBatchScheduler(
        max_batch=max_batch,
        policy=AdaptiveDeadlinePolicy(max_wait_us=MAX_WAIT_S * 1e6, min_wait_us=50.0),
        **hooks,
    )


def tiered(max_batch=4):
    return make_scheduler(
        max_batch, priority_of=lambda e: e[0], tenant_of=lambda e: e[1]
    )


class TestFreeSlots:
    def test_poll_flushes_at_most_free_due_queues(self, clock):
        sched = make_scheduler()
        for key in "abc":
            sched.submit(key, key, clock())
        clock.advance(2 * MAX_WAIT_S)
        assert sched.poll(clock(), 0) == []
        assert [b.key for b in sched.poll(clock(), 2)] == ["a", "b"]
        assert len(sched) == 1
        assert [b.key for b in sched.poll(clock(), 5)] == ["c"]
        assert sched.poll(clock(), 5) == []

    def test_negative_free_is_no_room(self, clock):
        # size flushes never wait for a slot, so the count can dip below 0
        sched = make_scheduler()
        sched.submit("a", 1, clock())
        assert sched.poll(clock.advance(2 * MAX_WAIT_S), -1) == []
        assert len(sched) == 1

    def test_queues_not_yet_due_do_not_use_a_slot(self, clock):
        sched = make_scheduler()
        sched.submit("old", 1, clock())
        clock.advance(2 * MAX_WAIT_S)
        sched.submit("young", 2, clock())
        assert [b.key for b in sched.poll(clock(), 4)] == ["old"]
        assert len(sched) == 1

    def test_held_queue_keeps_absorbing(self, clock):
        sched = make_scheduler(max_batch=4)
        sched.submit("k", 1, clock())
        clock.advance(2 * MAX_WAIT_S)
        assert sched.poll(clock(), 0) == []
        # past its deadline and still open: arrivals join the same batch
        assert sched.submit("k", 2, clock.advance(MAX_WAIT_S)) is None
        assert sched.submit("k", 3, clock.advance(MAX_WAIT_S)) is None
        (batch,) = sched.poll(clock(), 1)
        assert (batch.entries, batch.trigger) == ([1, 2, 3], "deadline")

    def test_held_queue_flushes_on_size_without_a_slot(self, clock):
        sched = make_scheduler(max_batch=3)
        sched.submit("k", 1, clock())
        clock.advance(2 * MAX_WAIT_S)
        assert sched.poll(clock(), 0) == []
        assert sched.submit("k", 2, clock()) is None
        batch = sched.submit("k", 3, clock())
        assert (batch.entries, batch.trigger) == ([1, 2, 3], "size")
        assert sched.poll(clock(), 1) == []

    def test_next_deadline_stays_in_the_past_while_held(self, clock):
        sched = make_scheduler()
        opened = clock()
        sched.submit("k", 1, opened)
        clock.advance(5 * MAX_WAIT_S)
        sched.poll(clock(), 0)
        assert sched.next_deadline() == pytest.approx(opened + MAX_WAIT_S)

    def test_drain_returns_held_batches(self, clock):
        sched = make_scheduler()
        sched.submit("held", 1, clock())
        clock.advance(2 * MAX_WAIT_S)
        sched.poll(clock(), 0)
        sched.submit("fresh", 2, clock())
        drained = sched.drain()
        assert {b.key: b.entries for b in drained} == {"held": [1], "fresh": [2]}
        assert {b.trigger for b in drained} == {"drain"}
        assert len(sched) == 0 and sched.next_deadline() is None


class TestScarceSlotOrder:
    def test_tier_beats_age(self, clock):
        sched = tiered()
        sched.submit("bulk", (2, "t", "old"), clock())
        sched.submit("interactive", (0, "t", "new"), clock.advance(1e-5))
        clock.advance(2 * MAX_WAIT_S)
        assert [b.key for b in sched.poll(clock(), 1)] == ["interactive"]
        assert [b.key for b in sched.poll(clock(), 1)] == ["bulk"]

    def test_fair_share_breaks_tier_ties(self, clock):
        sched = tiered()
        sched.fair_share.balance("quiet")
        sched.fair_share.charge("hog", 64.0)
        sched.submit("h", (0, "hog", 1), clock())
        sched.submit("q", (0, "quiet", 1), clock.advance(1e-5))
        clock.advance(2 * MAX_WAIT_S)
        assert [b.key for b in sched.poll(clock(), 1)] == ["q"]
        # the one slot charged "quiet" a single op: "hog" is still ahead
        assert sched.fair_share.balance("hog") > sched.fair_share.balance("quiet")

    def test_oldest_queue_breaks_remaining_ties(self, clock):
        sched = tiered()
        for name in ("first", "second", "third"):
            sched.submit(name, (1, "t", name), clock.advance(1e-5))
        clock.advance(2 * MAX_WAIT_S)
        assert [b.key for b in sched.poll(clock(), 2)] == ["first", "second"]
        assert [b.key for b in sched.poll(clock(), 2)] == ["third"]

    def test_held_batches_are_charged_when_they_leave(self, clock):
        sched = tiered()
        sched.fair_share.balance("idle")
        sched.submit("k", (0, "a", 1), clock())
        clock.advance(2 * MAX_WAIT_S)
        sched.poll(clock(), 0)
        assert sched.fair_share.snapshot().get("a", 0.0) == 0.0
        sched.submit("k", (0, "a", 2), clock())
        sched.poll(clock(), 1)
        assert sched.fair_share.snapshot() == {"a": 2.0, "idle": 0.0}


class TestBatchLimit:
    def test_limit_one_flushes_every_entry_alone(self, clock):
        sched = make_scheduler(max_batch=8)
        for i in range(3):
            batch = sched.submit("loop", i, clock.advance(1e-5), 1)
            assert (batch.entries, batch.trigger) == ([i], "size")
        assert len(sched) == 0

    def test_limit_is_capped_by_max_batch(self, clock):
        sched = make_scheduler(max_batch=2)
        assert sched.submit("k", 1, clock(), 5) is None
        assert sched.submit("k", 2, clock(), 5).entries == [1, 2]

    def test_limit_is_fixed_when_the_queue_opens(self, clock):
        sched = make_scheduler(max_batch=8)
        assert sched.submit("k", 1, clock(), 2) is None
        assert sched.submit("k", 2, clock(), 8).entries == [1, 2]


class TestNoWaitWhenAlone:
    def _alone_once(self, sched, clock, key="k"):
        """First batch of ``key``: waits its deadline out and leaves alone."""
        assert sched.submit(key, "first", clock()) is None
        (batch,) = sched.poll(clock.advance(2 * MAX_WAIT_S), 1)
        assert (batch.entries, batch.trigger) == (["first"], "deadline")

    def test_first_request_ever_waits(self, clock):
        sched = make_scheduler()
        assert sched.submit("k", 1, clock()) is None

    def test_alone_then_immediate(self, clock):
        sched = make_scheduler()
        self._alone_once(sched, clock)
        batch = sched.submit("k", "second", clock.advance(2 * MAX_WAIT_S))
        assert (batch.entries, batch.trigger) == (["second"], "alone")
        assert len(sched) == 0
        # and it stays that way while requests keep coming one by one
        batch = sched.submit("k", "third", clock.advance(2 * MAX_WAIT_S))
        assert (batch.entries, batch.trigger) == (["third"], "alone")

    def test_arrival_soon_after_an_immediate_flush_waits_again(self, clock):
        sched = make_scheduler()
        self._alone_once(sched, clock)
        assert sched.submit("k", 2, clock.advance(2 * MAX_WAIT_S)).trigger == "alone"
        # within max_wait_us of that flush: company may be coming
        assert sched.submit("k", 3, clock.advance(MAX_WAIT_S / 2)) is None
        assert sched.submit("k", 4, clock.advance(1e-5)) is None
        (batch,) = sched.poll(clock.advance(2 * MAX_WAIT_S), 1)
        assert batch.entries == [3, 4]
        # that batch had company: the next opener waits, however late
        assert sched.submit("k", 5, clock.advance(50 * MAX_WAIT_S)) is None

    def test_exactly_max_wait_is_not_long_ago(self, clock):
        sched = make_scheduler()
        sched.submit("k", 1, clock())
        sched.poll(clock.advance(MAX_WAIT_S), 1)
        assert sched.submit("k", 2, clock.advance(MAX_WAIT_S)) is None

    def test_size_flushed_queue_never_skips(self, clock):
        sched = make_scheduler(max_batch=3)
        for i in range(2):
            assert sched.submit("k", i, clock.advance(1e-5)) is None
        assert sched.submit("k", 2, clock.advance(1e-5)).trigger == "size"
        assert sched.submit("k", "late", clock.advance(50 * MAX_WAIT_S)) is None

    def test_limit_one_size_flush_is_not_alone(self, clock):
        # a queue of limit 1 flushes on size every time; if its scheme is
        # later served with a real limit, history must not say "alone"
        sched = make_scheduler()
        assert sched.submit("k", 1, clock(), 1).trigger == "size"
        assert sched.submit("k", 2, clock.advance(50 * MAX_WAIT_S)) is None

    def test_memory_is_per_queue(self, clock):
        sched = make_scheduler()
        self._alone_once(sched, clock, "quiet")
        clock.advance(2 * MAX_WAIT_S)
        assert sched.submit("other", 1, clock()) is None
        assert sched.submit("quiet", 2, clock()).trigger == "alone"

    def test_a_closed_loop_after_a_long_kernel_still_waits(self, clock):
        # 4 callers fill a batch, the kernel runs for 12 ms, the replies
        # land and the callers come back one after another: the first of
        # them must not leave ahead of its companions — to the global gap
        # EWMA (reset by the idle gap) this looks exactly like light load
        sched = make_scheduler(max_batch=4)
        for i in range(4):
            batch = sched.submit("k", i, clock.advance(1e-5))
        assert batch.trigger == "size"
        clock.advance(12e-3)
        assert sched.policy.wait_us(4) <= MAX_WAIT_S * 1e6
        for i in range(3):
            assert sched.submit("k", i, clock.advance(1e-5)) is None
        assert sched.submit("k", 3, clock.advance(1e-5)).entries == [0, 1, 2, 3]

    def test_alone_flush_is_charged(self, clock):
        sched = tiered()
        sched.fair_share.balance("idle")
        sched.submit("k", (0, "a", 1), clock())
        sched.poll(clock.advance(2 * MAX_WAIT_S), 1)
        sched.submit("k", (0, "a", 2), clock.advance(2 * MAX_WAIT_S))
        assert sched.fair_share.snapshot() == {"a": 2.0, "idle": 0.0}
