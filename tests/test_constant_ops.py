"""The constant-op-count gate of the constant-time BCH decoder.

Table I exists to show that the protected decoder does the same work
whatever it is given.  Three images of that property are pinned here:

* the **counted schedule**: operation totals, phase by phase, are
  identical for clean, correctable, uncorrectable and garbage words,
  both as the default decoder charges them in bulk and as the golden
  per-iteration loops (``_decode_scalar``) count them;
* the **batched numpy engine**: the sequence of executed source lines in
  ``repro/bch/ct_decoder.py`` and ``repro/gf/field.py``, together with
  the shape and dtype of every array bound to a local at each line,
  depends on the batch size, the code and the window only, and no lane's
  result depends on what sits in the other lanes;
* **batched DECAPS**: a valid and a tampered ciphertext take the same
  lines through the decoder, through ``_decaps_chunk`` and through the
  ciphertext codec (row packing, unpacking and the ``u < q`` range rule
  in ``repro/lac/pke.py``, ``v`` compression in
  ``repro/lac/encoding.py``) and hash the
  same number of times — and across hosted keys the schedule depends on
  the batch size and the number of distinct keys only, not on which
  lane names which key.

A Python-level trace sees a planted data-dependent branch (lines
differ) and a data-dependent shape that reaches a local (``x =
a[mask]``, ``np.nonzero``).  It cannot see a boolean index consumed in
place (``a[mask] ^= 1`` binds nothing), so the numpy entry points whose
result shape depends on values are also banned from the module by name.
"""

import ast
import inspect
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro.batch.kem as batch_kem
import repro.bch.ct_decoder as ct_decoder
from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.eval.leakage import error_count_distinguisher
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS
from repro.lac.pke import Ciphertext, ciphertext_rows
from repro.metrics import OpCounter
from tests.test_bch_decoder import make_word

_DECODER_FILES = ("repro/bch/ct_decoder.py", "repro/gf/field.py")
#: what a batched DECAPS runs: the decoder, the kernel and the codec
_DECAPS_FILES = _DECODER_FILES + (
    "repro/batch/kem.py",
    "repro/lac/pke.py",
    "repro/lac/encoding.py",
)
WINDOWS = ("natural", "message")


@pytest.fixture(params=ALL_PARAMS, ids=lambda p: p.name)
def code(request):
    return request.param.bch


@lru_cache(maxsize=None)
def _word(code, n_errors, seed):
    return make_word(code, n_errors, seed=seed)[2]


def _special_words(code):
    garbage = np.random.default_rng(5).integers(0, 2, code.n).astype(np.uint8)
    return [np.zeros(code.n, np.uint8), np.ones(code.n, np.uint8), garbage]


def _batch(code, kind, size):
    """``size`` words of one kind: clean, t errors, beyond t, or a mix."""
    errors = {
        "clean": [0],
        "t-error": [code.t],
        "uncorrectable": [code.t + 3],
        "mixed": [0, code.t, code.t + 3, 1],
    }[kind]
    words = [_word(code, errors[i % len(errors)], seed=i) for i in range(size)]
    if kind in ("uncorrectable", "mixed"):
        # all-zero, all-one and random garbage ride along
        for slot, special in zip(range(1, size, 3), _special_words(code)):
            words[slot] = special
    return np.stack(words)


def _traced(fn, files):
    """Run ``fn``; return its result and the (file, line, local arrays) trace.

    Every ``line`` event inside ``files`` is recorded with the shape and
    dtype of each ndarray the frame's locals hold at that moment.
    """
    events = []

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(files):
            return None
        if event == "line":
            arrays = tuple(
                (name, value.shape, value.dtype.str)
                for name, value in frame.f_locals.items()
                if isinstance(value, np.ndarray)
            )
            events.append((Path(filename).name, frame.f_lineno, arrays))
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, events


def _same(a, b):
    return (
        a.success == b.success
        and a.errors_found == b.errors_found
        and np.array_equal(a.codeword, b.codeword)
        and np.array_equal(a.message, b.message)
    )


# ---------------------------------------------------------------------------
# (i) the counted schedule, charged in bulk and by the golden loops
# ---------------------------------------------------------------------------


def _assert_counts_do_not_depend_on_the_word(code, decode, window):
    words = [
        _word(code, n_errors, seed=n_errors + 1)
        for n_errors in (0, 1, code.t, code.t + 3)
    ] + _special_words(code)
    seen = []
    for word in words:
        counter = OpCounter()
        decode(word, counter, window)
        phases = {name: dict(ops) for name, ops in counter.phases.items()}
        seen.append((dict(counter.totals()), phases))
    assert all(entry == seen[0] for entry in seen[1:])
    assert {"syndrome", "error_locator", "chien"} <= set(seen[0][1])


class TestScalarOpCounts:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_counts_do_not_depend_on_the_word(self, code, window):
        # the default decoder: the lanes engine, each phase charged in bulk
        decoder = ConstantTimeBCHDecoder(code)
        _assert_counts_do_not_depend_on_the_word(code, decoder.decode, window)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_golden_counts_do_not_depend_on_the_word(self, code, window):
        # the golden per-iteration loops, counting as they run
        decoder = ConstantTimeBCHDecoder(code)
        _assert_counts_do_not_depend_on_the_word(code, decoder._decode_scalar, window)

    def test_timing_distinguisher_stays_at_chance(self):
        report = error_count_distinguisher(
            constant_time=True, attempts=12, traces_per_attempt=2
        )
        # three error classes share one timing: the classifier collapses
        # onto a single guess and is right a third of the time
        assert report.exact_hits <= 7
        assert report.mean_absolute_error >= 2.0


# ---------------------------------------------------------------------------
# (ii) the batched engine
# ---------------------------------------------------------------------------


class TestBatchedEngine:
    @pytest.mark.parametrize("size", [2, 7, 64])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_trace_depends_on_batch_size_only(self, code, window, size):
        decoder = ConstantTimeBCHDecoder(code)
        decoder.decode_many(_batch(code, "clean", size), window=window)  # tables
        traces = {}
        for kind in ("clean", "t-error", "uncorrectable", "mixed"):
            words = _batch(code, kind, size)
            _, traces[kind] = _traced(
                lambda: decoder.decode_many(words, window=window), _DECODER_FILES
            )
        reference = traces["clean"]
        assert len(reference) > 100  # the trace is live
        for kind, trace in traces.items():
            assert trace == reference, kind

    def test_trace_sees_a_data_dependent_shape(self):
        # the harness itself: a mask-index bound to a local changes the trace
        def leaky(words):
            rows = words[words.any(axis=1)]
            return rows

        leaky.__code__ = leaky.__code__.replace(co_filename=_DECODER_FILES[0])
        clean = np.zeros((4, 8), np.uint8)
        dirty = clean.copy()
        dirty[1, 3] = 1
        _, quiet = _traced(lambda: leaky(clean), _DECODER_FILES)
        _, loud = _traced(lambda: leaky(dirty), _DECODER_FILES)
        assert quiet != loud

    @pytest.mark.parametrize("window", WINDOWS)
    def test_lanes_are_independent(self, code, window):
        decoder = ConstantTimeBCHDecoder(code)
        words = _batch(code, "mixed", 16)
        baseline = decoder.decode_many(words, window=window)

        order = np.random.default_rng(8).permutation(len(words))
        permuted = decoder.decode_many(words[order], window=window)
        for lane, source in enumerate(order):
            assert _same(permuted[lane], baseline[source])

        # replace every other lane by something else entirely
        replaced = words.copy()
        replaced[1::2] = _batch(code, "uncorrectable", 8)
        redecoded = decoder.decode_many(replaced, window=window)
        for lane in range(0, len(words), 2):
            assert _same(redecoded[lane], baseline[lane])

    def test_no_value_shaped_numpy_calls(self):
        banned = {
            "nonzero", "flatnonzero", "argwhere", "compress", "extract",
            "unique", "trim_zeros", "searchsorted",
        }
        tree = ast.parse(inspect.getsource(ct_decoder))
        used = {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        }
        assert not used & banned
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "where"
            ):
                assert len(node.args) == 3, "one-argument np.where is np.nonzero"


# ---------------------------------------------------------------------------
# (iii) batched decapsulation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hosted():
    cache = {}

    def get(params):
        if params.name not in cache:
            kem = LacKem(params)
            pair = kem.keygen(bytes(range(64)))
            messages = [bytes([i, 0xA5] * 16) for i in range(4)]
            valid = [
                r.ciphertext for r in kem.encaps_many(pair.public_key, messages)
            ]
            # one wire byte changed per ciphertext: a u coefficient, or
            # the byte holding two v nibbles
            tampered = {
                name: [
                    _flip_byte(params, ct, offset + lane)
                    for lane, ct in enumerate(valid)
                ]
                for name, offset in (("tampered-u", 0), ("tampered-v", params.n))
            }
            kem.decaps_many(pair.secret_key, valid)  # build tables untraced
            cache[params.name] = (kem, pair, valid, tampered)
        return cache[params.name]

    return get


def _flip_byte(params, ciphertext, index):
    """``ciphertext`` with wire byte ``index`` changed (kept < q in u)."""
    wire = bytearray(ciphertext.to_bytes())
    if index < params.n:
        wire[index] = (wire[index] + 1) % params.q
    else:
        wire[index] ^= 0x11
    return Ciphertext.from_bytes(params, bytes(wire))


class TestBatchedDecaps:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_valid_and_tampered_run_the_same_schedule(
        self, params, hosted, monkeypatch
    ):
        kem, pair, valid, tampered = hosted(params)
        hashed = []
        real_hash3 = batch_kem._hash3

        def counting_hash3(*args):
            hashed[-1] += 1
            return real_hash3(*args)

        monkeypatch.setattr(batch_kem, "_hash3", counting_hash3)
        files = _DECAPS_FILES
        outcomes = {}
        for name, batch in (("valid", valid), *tampered.items()):
            hashed.append(0)
            secrets, trace = _traced(
                lambda: kem.decaps_many(pair.secret_key, batch), files
            )
            outcomes[name] = (secrets, trace)
        assert len(outcomes["valid"][1]) > 100  # the trace is live
        for name, batch in tampered.items():
            assert outcomes[name][1] == outcomes["valid"][1], name
            # and the tampered ones really were rejected
            assert not set(outcomes["valid"][0]) & set(outcomes[name][0])
            assert outcomes[name][0] == [
                kem.decaps(pair.secret_key, ct) for ct in batch
            ]
        assert hashed == [3 * len(valid)] * 3

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_cross_key_schedule_depends_on_batch_and_key_count_only(
        self, params, monkeypatch
    ):
        """A batch across K hosted keys: whichever lanes name which key,
        valid or tampered, the kernel runs the same lines on arrays of
        the same shapes and hashes the same number of times."""
        kem = LacKem(params)
        pairs = [kem.keygen(bytes([k + 1]) * 64) for k in range(3)]
        hashed = []
        real_hash3 = batch_kem._hash3

        def counting_hash3(*args):
            hashed[-1] += 1
            return real_hash3(*args)

        files = _DECAPS_FILES + ("repro/ring/poly.py",)

        def run(assignment, tampered):
            keys = [pairs[k] for k in assignment]
            cts = [
                kem.encaps(pair.public_key, bytes([lane, 0x3C] * 16)).ciphertext
                for lane, pair in enumerate(keys)
            ]
            if tampered:
                cts = [
                    Ciphertext(params, np.mod(ct.u + 1, params.q), ct.v_compressed)
                    for ct in cts
                ]
            hashed.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(batch_kem, "_hash3", counting_hash3)
                rows = ciphertext_rows(params, [ct.to_bytes() for ct in cts])
                secrets, trace = _traced(
                    lambda: batch_kem._decaps_chunk(
                        kem, [pair.secret_key for pair in keys], rows
                    ),
                    files,
                )
            assert secrets == [
                kem.decaps(pair.secret_key, ct) for pair, ct in zip(keys, cts)
            ]
            return trace

        run([0, 1, 2, 0, 1, 2], False)  # build tables untraced-for-real
        reference = run([0, 1, 2, 0, 1, 2], False)
        assert len(reference) > 100  # the trace is live
        for assignment in ([2, 2, 0, 1, 0, 1], [1, 0, 0, 0, 0, 2], [0, 0, 0, 1, 2, 2]):
            for tampered in (False, True):
                assert run(assignment, tampered) == reference, (assignment, tampered)
        assert set(hashed) == {3 * 6}
        # K is visible (it sets how many operands are resolved) — B and
        # K are public, which lane holds which key's request is not
        assert run([0, 0, 0, 0, 0, 0], False) != reference
        assert run([0, 1, 0, 1, 0, 1], False) != reference
