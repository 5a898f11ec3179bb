"""Unit tests for the trace layer: span model, recorders, ambient tags,
stage aggregation, and the protocol-v2 trace extension on the wire."""

import io
import json

import pytest

from repro.loadgen import percentile
from repro.serve.protocol import (
    HEADER_SIZE,
    TRACE_EXT_SIZE,
    VERSION,
    VERSION_TRACED,
    Frame,
    Op,
    ProtocolError,
    Status,
    decode_frame,
)
from repro.trace import (
    NULL_TRACER,
    InMemoryRecorder,
    JsonlRecorder,
    Span,
    TraceContext,
    Tracer,
    annotate,
    collect_tags,
    current_tags,
    format_stage_table,
    stage_breakdown,
)
from repro.trace.report import load_spans


def counting_ids(start=0):
    """A deterministic id_source: 1, 2, 3, ... regardless of bit width."""
    state = {"n": start}

    def source(bits):
        state["n"] += 1
        return state["n"]

    return source


class TestTraceContext:
    def test_valid_bounds(self):
        ctx = TraceContext((1 << 64) - 1, (1 << 32) - 1)
        assert ctx.trace_id == (1 << 64) - 1
        TraceContext(0, 0)  # zero ids are legal

    @pytest.mark.parametrize(
        "trace_id,span_id",
        [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 32)],
    )
    def test_out_of_range_rejected(self, trace_id, span_id):
        with pytest.raises(ValueError):
            TraceContext(trace_id, span_id)

    def test_frozen(self):
        ctx = TraceContext(1, 2)
        with pytest.raises(AttributeError):
            ctx.trace_id = 3


class TestSpan:
    def test_to_dict_hex_ids_and_microseconds(self):
        span = Span(
            name="kernel",
            trace_id=0xDEADBEEF,
            span_id=0xAB,
            parent_id=0xCD,
            start=12.5,
            duration_s=0.0015,
            tags={"op": "ENCAPS"},
        )
        d = span.to_dict()
        assert d["trace_id"] == "00000000deadbeef"
        assert d["span_id"] == "000000ab"
        assert d["parent_id"] == "000000cd"
        assert d["start_s"] == 12.5
        assert d["duration_us"] == pytest.approx(1500.0)
        assert d["tags"] == {"op": "ENCAPS"}

    def test_root_span_has_null_parent(self):
        span = Span("server.request", 1, 2, None, 0.0, 0.0)
        assert span.to_dict()["parent_id"] is None


class TestRecorders:
    def test_in_memory_caps_and_counts_drops(self):
        rec = InMemoryRecorder(max_spans=2)
        for i in range(5):
            rec.record(Span("s", 1, i, None, 0.0, 0.0))
        assert len(rec.spans) == 2
        assert rec.dropped == 3
        assert [d["span_id"] for d in rec.to_dicts()] == ["00000000", "00000001"]

    def test_jsonl_streams_spans_without_closing_foreign_streams(self):
        stream = io.StringIO()
        rec = JsonlRecorder(stream)
        rec.record(Span("queue", 7, 8, 9, 1.0, 2e-6, {"k": 1}))
        rec.record(Span("kernel", 7, 10, 9, 3.0, 4e-6))
        rec.close()
        assert rec.written == 2
        assert not stream.closed  # caller-owned stream stays open
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [s["name"] for s in lines] == ["queue", "kernel"]
        assert lines[0]["duration_us"] == pytest.approx(2.0)

    def test_jsonl_open_owns_and_closes_the_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        rec = JsonlRecorder.open(str(path))
        rec.record(Span("reply", 1, 2, None, 0.0, 1e-6))
        rec.close()
        spans = load_spans(path)
        assert len(spans) == 1
        assert spans[0]["name"] == "reply"

    def test_load_spans_skips_blank_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"name":"a","duration_us":1.0}\n\n')
        assert len(load_spans(path)) == 1


class TestTracer:
    def test_ids_are_masked_to_their_width(self):
        tracer = Tracer(id_source=lambda bits: (1 << 80) - 1)
        assert tracer.new_trace_id() == (1 << 64) - 1
        assert tracer.new_span_id() == (1 << 32) - 1

    def test_record_span_clamps_negative_durations(self):
        rec = InMemoryRecorder()
        tracer = Tracer(recorder=rec)
        span = tracer.record_span("admission", start=5.0, duration_s=-1.0, trace_id=1)
        assert span.duration_s == 0.0
        assert rec.spans == [span]

    def test_record_span_generates_span_id_when_absent(self):
        tracer = Tracer(recorder=InMemoryRecorder(), id_source=counting_ids())
        span = tracer.record_span("queue", 0.0, 1e-3, trace_id=9)
        assert span.span_id == 1
        explicit = tracer.record_span("queue", 0.0, 1e-3, trace_id=9, span_id=77)
        assert explicit.span_id == 77

    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        # recording through it is harmless and stores nothing anywhere
        NULL_TRACER.record_span("x", 0.0, 1.0, trace_id=1)

    def test_injectable_clock(self):
        tracer = Tracer(clock=lambda: 42.0)
        assert tracer.clock() == 42.0


class TestAmbientTags:
    def test_annotate_is_a_no_op_outside_any_sink(self):
        assert current_tags() is None
        annotate(fault_site="kernel")  # must not raise
        assert current_tags() is None

    def test_tags_land_in_the_active_sink(self):
        with collect_tags() as bag:
            annotate(fault_site="kernel", fault_kind="raise")
            annotate(fault_kind="stall")  # later wins
            assert current_tags() is bag
        assert bag == {"fault_site": "kernel", "fault_kind": "stall"}
        assert current_tags() is None

    def test_nested_sinks_shadow_innermost_wins(self):
        with collect_tags() as outer:
            annotate(level="outer")
            with collect_tags() as inner:
                annotate(level="inner")
            annotate(after="nested")
        assert outer == {"level": "outer", "after": "nested"}
        assert inner == {"level": "inner"}

    def test_caller_supplied_sink_is_used_directly(self):
        mine = {"preset": 1}
        with collect_tags(mine) as bag:
            assert bag is mine
            annotate(extra=2)
        assert mine == {"preset": 1, "extra": 2}


def _span(name, duration_us, **tags):
    return {"name": name, "duration_us": duration_us, "tags": tags}


class TestStageBreakdown:
    def test_exact_stats_and_full_coverage(self):
        spans = [
            _span("server.request", 100.0),
            _span("server.request", 200.0),
            _span("queue", 30.0),
            _span("queue", 50.0),
            _span("kernel", 90.0),
            _span("kernel", 130.0),
        ]
        b = stage_breakdown(spans)
        assert b["requests"]["count"] == 2
        assert b["requests"]["total_us"] == 300.0
        assert b["coverage"] == pytest.approx(1.0)
        by_name = {s.stage: s for s in b["stages"]}
        assert by_name["queue"].total_us == 80.0
        assert by_name["queue"].share == pytest.approx(80.0 / 300.0)
        assert by_name["kernel"].p50_us in (90.0, 130.0)

    def test_quantiles_take_the_nearest_rank(self):
        # one rule with repro.loadgen.percentile: the ceil(q * n)-th
        # smallest sample, so the p50 of four is the second
        durations = [4.0, 1.0, 3.0, 2.0]
        spans = [_span("server.request", 10.0)] * 4 + [
            _span("kernel", d) for d in durations
        ]
        b = stage_breakdown(spans)
        [kernel] = b["stages"]
        assert (kernel.p50_us, kernel.p95_us, kernel.p99_us) == (2.0, 4.0, 4.0)
        assert kernel.p50_us == percentile(durations, 50.0)
        assert b["requests"]["p50_us"] == 10.0

    def test_stages_come_out_in_request_path_order(self):
        spans = [
            _span("server.request", 10.0),
            _span("reply", 1.0),
            _span("admission", 2.0),
            _span("kernel", 3.0),
            _span("server.batch", 4.0, stage="1"),  # unknown name sorts last
        ]
        order = [s.stage for s in stage_breakdown(spans)["stages"]]
        assert order == ["admission", "kernel", "reply", "server.batch"]

    def test_non_stage_spans_are_ignored(self):
        spans = [
            _span("server.request", 10.0),
            _span("client.request", 99.0),  # client side: not a server stage
            _span("kernel", 10.0),
        ]
        b = stage_breakdown(spans)
        assert [s.stage for s in b["stages"]] == ["kernel"]
        assert b["coverage"] == pytest.approx(1.0)

    def test_empty_dump(self):
        b = stage_breakdown([])
        assert b["stages"] == []
        assert b["requests"]["count"] == 0
        assert b["coverage"] == 0.0

    def test_format_stage_table_renders_every_row(self):
        spans = [_span("server.request", 100.0), _span("kernel", 100.0)]
        table = format_stage_table(stage_breakdown(spans))
        assert "kernel" in table
        assert "end-to-end" in table
        assert "stage coverage of end-to-end time: 100.0%" in table


class TestProtocolTraceExtension:
    def test_untraced_frames_are_byte_identical_to_v1(self):
        frame = Frame(Op.ENCAPS, request_id=7, param_id=1, payload=b"pk")
        wire = frame.to_bytes()
        assert wire[2] == VERSION
        assert len(wire) == HEADER_SIZE + 2
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire)
        assert decoded.trace is None
        assert decoded.payload == b"pk"

    def test_traced_frame_round_trips(self):
        ctx = TraceContext(0x0123456789ABCDEF, 0xCAFE)
        frame = Frame(
            Op.DECAPS, request_id=9, param_id=2, payload=b"ct", trace=ctx
        )
        wire = frame.to_bytes()
        assert wire[2] == VERSION_TRACED
        assert len(wire) == HEADER_SIZE + TRACE_EXT_SIZE + 2
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire)
        assert decoded.trace == ctx
        assert decoded.payload == b"ct"
        assert decoded.op is Op.DECAPS
        assert decoded.status is Status.OK

    def test_trace_ext_size_is_twelve_bytes(self):
        assert TRACE_EXT_SIZE == 12

    def test_decoder_accepts_both_versions(self):
        traced = Frame(Op.INFO, 1, trace=TraceContext(5, 6)).to_bytes()
        frame, consumed = decode_frame(traced)
        assert frame.op is Op.INFO
        assert frame.trace == TraceContext(5, 6)
        assert consumed == HEADER_SIZE + TRACE_EXT_SIZE
        frame, consumed = decode_frame(Frame(Op.INFO, 1).to_bytes())
        assert frame.trace is None
        assert consumed == HEADER_SIZE

    def test_trace_ext_layout_and_length(self):
        # the extension is 8 bytes of trace id then 4 of span id,
        # big-endian, straight after the header
        header = Frame(Op.INFO, 1, trace=TraceContext(0, 0)).to_bytes()[:HEADER_SIZE]
        ext = (0xAA).to_bytes(8, "big") + (0xBB).to_bytes(4, "big")
        assert decode_frame(header + ext)[0].trace == TraceContext(0xAA, 0xBB)
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(header + b"\x00" * 5)
        assert excinfo.value.reason == "truncated"

    def test_truncated_trace_extension_rejected(self):
        wire = Frame(Op.INFO, 1, trace=TraceContext(1, 2)).to_bytes()
        with pytest.raises(ProtocolError, match="truncated extension"):
            decode_frame(wire[: HEADER_SIZE + 5])

    def test_truncated_payload_after_extension_rejected(self):
        wire = Frame(
            Op.ENCAPS, 1, param_id=0, payload=b"abcd", trace=TraceContext(1, 2)
        ).to_bytes()
        with pytest.raises(ProtocolError, match="payload"):
            decode_frame(wire[:-2])
