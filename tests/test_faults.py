"""Unit tests of the fault-injection layer: plan determinism, fire
budgets, observer accounting, and the transport wrappers' per-frame
fault semantics — all without a running service."""

import asyncio
import random

import pytest

from repro.faults import (
    ALL_SITES,
    KIND_BUSY,
    KIND_CORRUPT,
    KIND_DELAY,
    KIND_DROP,
    KIND_RAISE,
    KIND_STALL,
    KIND_TRUNCATE,
    SITE_ADMISSION,
    SITE_BACKEND,
    SITE_KERNEL,
    SITE_TRANSPORT_READ,
    SITE_TRANSPORT_WRITE,
    FaultPlan,
    FaultSpec,
    FaultyReader,
    FaultyWriter,
    random_plan,
    wrap_connection,
)
from repro.serve.protocol import (
    HEADER_SIZE,
    MAGIC,
    Frame,
    Op,
    ProtocolError,
    read_frame,
)


def drain_draws(plan: FaultPlan, site: str, n: int) -> list[str | None]:
    return [
        spec.kind if (spec := plan.draw(site)) is not None else None
        for _ in range(n)
    ]


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(SITE_KERNEL, KIND_RAISE, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(SITE_KERNEL, KIND_RAISE, probability=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(SITE_KERNEL, KIND_RAISE, max_fires=-1)
        with pytest.raises(ValueError):
            FaultSpec(SITE_KERNEL, KIND_STALL, delay_s=-0.5)

    def test_frozen(self):
        spec = FaultSpec(SITE_KERNEL, KIND_RAISE)
        with pytest.raises(AttributeError):
            spec.probability = 0.5


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        specs = [FaultSpec(SITE_KERNEL, KIND_RAISE, probability=0.3)]
        a = FaultPlan(list(specs), seed=7)
        b = FaultPlan(list(specs), seed=7)
        assert drain_draws(a, SITE_KERNEL, 200) == drain_draws(
            b, SITE_KERNEL, 200
        )

    def test_different_seeds_diverge(self):
        specs = [FaultSpec(SITE_KERNEL, KIND_RAISE, probability=0.3)]
        a = FaultPlan(list(specs), seed=1)
        b = FaultPlan(list(specs), seed=2)
        assert drain_draws(a, SITE_KERNEL, 200) != drain_draws(
            b, SITE_KERNEL, 200
        )

    def test_sites_draw_independent_streams(self):
        # interleaving draws at one site must not shift another site's
        # decision sequence
        spec_r = FaultSpec(SITE_TRANSPORT_READ, KIND_DROP, probability=0.4)
        spec_k = FaultSpec(SITE_KERNEL, KIND_RAISE, probability=0.4)
        solo = FaultPlan([spec_k], seed=9)
        mixed = FaultPlan([spec_r, spec_k], seed=9)
        solo_seq = drain_draws(solo, SITE_KERNEL, 100)
        mixed_seq = []
        for _ in range(100):
            mixed.draw(SITE_TRANSPORT_READ)  # interleaved noise
            spec = mixed.draw(SITE_KERNEL)
            mixed_seq.append(spec.kind if spec else None)
        assert solo_seq == mixed_seq


class TestFaultPlanBudgets:
    def test_max_fires_caps_total(self):
        plan = FaultPlan([FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=3)])
        kinds = drain_draws(plan, SITE_ADMISSION, 10)
        assert kinds == [KIND_BUSY] * 3 + [None] * 7
        assert plan.fired[SITE_ADMISSION, KIND_BUSY] == 3
        assert plan.total_fired() == 3

    def test_probability_zero_never_fires(self):
        plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_RAISE, probability=0.0)])
        assert drain_draws(plan, SITE_KERNEL, 50) == [None] * 50
        assert plan.total_fired() == 0

    def test_probability_one_always_fires(self):
        plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_RAISE)])
        assert drain_draws(plan, SITE_KERNEL, 50) == [KIND_RAISE] * 50

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultSpec(SITE_ADMISSION, KIND_BUSY, max_fires=1),
                FaultSpec(SITE_ADMISSION, "timeout"),
            ]
        )
        assert drain_draws(plan, SITE_ADMISSION, 3) == [
            KIND_BUSY,
            "timeout",
            "timeout",
        ]

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan([FaultSpec(SITE_KERNEL, KIND_RAISE)])
        assert plan.draw(SITE_ADMISSION) is None
        assert plan.has_site(SITE_KERNEL)
        assert not plan.has_site(SITE_ADMISSION)


class TestObserverAccounting:
    def test_observer_sees_every_fire(self):
        seen: list[tuple[str, str]] = []
        plan = random_plan(seed=5, intensity=0.5)
        plan.observer = lambda site, kind: seen.append((site, kind))
        for _ in range(100):
            for site in ALL_SITES:
                plan.draw(site)
        assert len(seen) == plan.total_fired() > 0
        counted: dict[tuple[str, str], int] = {}
        for key in seen:
            counted[key] = counted.get(key, 0) + 1
        assert counted == dict(plan.fired)


class TestRandomPlan:
    def test_reproducible(self):
        a, b = random_plan(seed=42), random_plan(seed=42)
        specs_a = [armed.spec for armed in a._armed]
        specs_b = [armed.spec for armed in b._armed]
        assert specs_a == specs_b
        for site in ALL_SITES:
            assert drain_draws(a, site, 50) == drain_draws(b, site, 50)

    def test_covers_every_site(self):
        plan = random_plan(seed=0)
        for site in ALL_SITES:
            assert plan.has_site(site)

    @pytest.mark.parametrize(
        "seed, probabilities",
        [
            (101, (
                0.05405760662522823, 0.034737724776706835, 0.03663127767652778,
                0.035599410041919854, 0.0483569339098487, 0.02908676611325152,
                0.0178630742434492, 0.03608481247631203, 0.039426121669062814,
                0.11924227459953177, 0.035618838417916555, 0.01838882439192217,
            )),
            (202, (
                0.06319407872316977, 0.05723903755431532, 0.02273595200349882,
                0.01745218601002844, 0.058835016711802336, 0.03673214540931688,
                0.023193677224714798, 0.06754374297383862, 0.026803915165042397,
                0.10277860412448066, 0.035077660619258766, 0.012428325287043617,
            )),
            (303, (
                0.026582873702117357, 0.07344018807279319, 0.017372639866896102,
                0.037360124581716773, 0.07233717911807079, 0.018966904574396072,
                0.025406660695818085, 0.04491396701250227, 0.045485456464013,
                0.12896862520479688, 0.06638650673936575, 0.00945674279039204,
            )),
        ],
    )
    def test_specs_pinned_per_seed(self, seed, probabilities):
        # the chaos suites' per-seed fault mix: each spec's site, kind
        # and exact probability, which adding or dropping a later spec
        # must not shift
        specs = [armed.spec for armed in random_plan(seed)._armed]
        assert [(s.site, s.kind) for s in specs] == [
            (SITE_TRANSPORT_READ, KIND_DELAY),
            (SITE_TRANSPORT_READ, KIND_CORRUPT),
            (SITE_TRANSPORT_READ, KIND_TRUNCATE),
            (SITE_TRANSPORT_READ, KIND_DROP),
            (SITE_TRANSPORT_WRITE, KIND_DELAY),
            (SITE_TRANSPORT_WRITE, KIND_TRUNCATE),
            (SITE_TRANSPORT_WRITE, KIND_DROP),
            (SITE_KERNEL, KIND_STALL),
            (SITE_KERNEL, KIND_RAISE),
            (SITE_ADMISSION, KIND_BUSY),
            (SITE_ADMISSION, "timeout"),
            (SITE_BACKEND, "crash"),
        ]
        assert tuple(s.probability for s in specs) == probabilities

    def test_intensity_scales_probability(self):
        quiet = random_plan(seed=3, intensity=0.0)
        for site in ALL_SITES:
            assert drain_draws(quiet, site, 50) == [None] * 50


# ---------------------------------------------------------------------------
# transport wrappers (driven with hand-rolled fake streams)
# ---------------------------------------------------------------------------


class ScriptedReader:
    """readexactly() from a canned byte string."""

    def __init__(self, data: bytes):
        self._data = data

    async def readexactly(self, n: int) -> bytes:
        if len(self._data) < n:
            raise asyncio.IncompleteReadError(self._data, n)
        chunk, self._data = self._data[:n], self._data[n:]
        return chunk


class ScriptedPlan:
    """draw() hands out canned decisions and counts how often it is asked."""

    def __init__(self, decisions):
        self._decisions = list(decisions)
        self.draws = 0

    def draw(self, site):
        self.draws += 1
        return self._decisions.pop(0)


class RecordingWriter:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.closed = False
        self.drains = 0

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        self.drains += 1

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


HEADER = MAGIC + bytes(HEADER_SIZE - len(MAGIC))


def run(coro):
    return asyncio.run(coro)


class TestFaultyReader:
    def test_passthrough_without_fire(self):
        plan = FaultPlan()  # no rules: draw() always None
        reader = FaultyReader(ScriptedReader(HEADER * 2), plan)
        assert run(reader.readexactly(HEADER_SIZE)) == HEADER

    @pytest.mark.parametrize("size", [13, HEADER_SIZE, 15])
    def test_one_draw_per_frame_whatever_the_payload_size(self, size):
        # regression: frame starts used to be recognised by a
        # header-sized read, so a 14-byte payload drew a second fault
        # mid-frame and a corrupt draw flipped a *payload* byte
        sent = Frame(Op.DECAPS, 7, payload=bytes(range(size)))
        plan = ScriptedPlan(
            [None, FaultSpec(SITE_TRANSPORT_READ, KIND_CORRUPT)]
        )
        reader = FaultyReader(ScriptedReader(sent.to_bytes() * 2), plan)

        async def main():
            assert await read_frame(reader) == sent  # intact
            with pytest.raises(ProtocolError) as excinfo:
                await read_frame(reader)  # rejected whole
            assert excinfo.value.reason == "bad-magic"

        run(main())
        assert plan.draws == 2

    def test_corrupt_flips_only_magic(self):
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_READ, KIND_CORRUPT)])
        reader = FaultyReader(ScriptedReader(HEADER), plan)
        got = run(reader.readexactly(HEADER_SIZE))
        assert got[0] == HEADER[0] ^ 0xFF
        assert got[1:] == HEADER[1:]

    def test_drop_resets_connection(self):
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_READ, KIND_DROP)])
        reader = FaultyReader(ScriptedReader(HEADER), plan)
        with pytest.raises(ConnectionResetError):
            run(reader.readexactly(HEADER_SIZE))

    def test_truncate_is_incomplete_read(self):
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_READ, KIND_TRUNCATE)])
        reader = FaultyReader(ScriptedReader(HEADER), plan)
        with pytest.raises(asyncio.IncompleteReadError) as excinfo:
            run(reader.readexactly(HEADER_SIZE))
        assert 0 < len(excinfo.value.partial) < HEADER_SIZE

    def test_delay_sleeps_then_delivers(self):
        slept: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            slept.append(seconds)

        plan = FaultPlan(
            [FaultSpec(SITE_TRANSPORT_READ, KIND_DELAY, delay_s=0.25)]
        )
        reader = FaultyReader(ScriptedReader(HEADER), plan, sleep=fake_sleep)
        assert run(reader.readexactly(HEADER_SIZE)) == HEADER
        assert slept == [0.25]


class TestFaultyWriter:
    def test_drop_closes_without_writing(self):
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_WRITE, KIND_DROP)])
        inner = RecordingWriter()
        writer = FaultyWriter(inner, plan)
        writer.write(HEADER)
        assert inner.chunks == []
        assert inner.closed

    def test_truncate_writes_half_then_closes(self):
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_WRITE, KIND_TRUNCATE)])
        inner = RecordingWriter()
        writer = FaultyWriter(inner, plan)
        writer.write(HEADER)
        assert inner.chunks == [HEADER[: HEADER_SIZE // 2]]
        assert inner.closed

    def test_delay_applied_in_drain(self):
        slept: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            slept.append(seconds)

        plan = FaultPlan(
            [FaultSpec(SITE_TRANSPORT_WRITE, KIND_DELAY, delay_s=0.1)]
        )
        inner = RecordingWriter()
        writer = FaultyWriter(inner, plan, sleep=fake_sleep)
        writer.write(HEADER)
        writer.write(HEADER)
        assert inner.chunks == [HEADER, HEADER]  # writes go through
        run(writer.drain())
        assert slept == [pytest.approx(0.2)]  # delays accumulate
        run(writer.drain())
        assert slept == [pytest.approx(0.2)]  # and are consumed once

    def test_close_proxies(self):
        inner = RecordingWriter()
        writer = FaultyWriter(inner, FaultPlan())
        writer.close()
        assert inner.closed
        run(writer.wait_closed())


class TestWrapConnection:
    def test_no_plan_is_identity(self):
        reader, writer = ScriptedReader(b""), RecordingWriter()
        assert wrap_connection(reader, writer, None) == (reader, writer)

    def test_wraps_only_armed_sites(self):
        reader, writer = ScriptedReader(b""), RecordingWriter()
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_READ, KIND_DROP)])
        wrapped_r, wrapped_w = wrap_connection(reader, writer, plan)
        assert isinstance(wrapped_r, FaultyReader)
        assert wrapped_w is writer

    def test_wraps_both_when_both_armed(self):
        reader, writer = ScriptedReader(b""), RecordingWriter()
        plan = random_plan(seed=1)
        wrapped_r, wrapped_w = wrap_connection(reader, writer, plan)
        assert isinstance(wrapped_r, FaultyReader)
        assert isinstance(wrapped_w, FaultyWriter)


class TestThreadSafety:
    def test_concurrent_draws_account_exactly(self):
        import threading

        plan = FaultPlan(
            [FaultSpec(SITE_KERNEL, KIND_RAISE, probability=0.5)], seed=11
        )
        hits = []

        def worker():
            count = sum(
                1 for _ in range(500) if plan.draw(SITE_KERNEL) is not None
            )
            hits.append(count)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(hits) == plan.total_fired()
        assert plan.fired[SITE_KERNEL, KIND_RAISE] == sum(hits)
