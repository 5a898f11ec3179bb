"""Kernel replay: the wall-clock Table II.

After the traced window, batches drawn from the workload's own inputs
at its observed batch sizes are replayed through each layer's *public*
function, in the order ``repro.batch.kem`` calls them.  Every call sits
in a benchmark-side span (name, start, duration, parent; one trace id
per replayed batch).  The parent span times the real batched call; its
children time the same work one layer at a time, so the parent's self
time is the glue between the layers.  Spans tagged ``off_path`` time
work the warm path skips (cold transforms, GenA, a clean-word decode)
and are not children.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.backend.cosim import model_cycles
from repro.batch import encode_many, gen_a_vec, key_fingerprints, warm_cache
from repro.batch.sampling import sample_secret_rows
from repro.eval.table2 import PAPER_SPEEDUPS
from repro.hashes import sha256
from repro.hashes.keccak import keccak_f1600
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS
from repro.lac.pke import Ciphertext
from repro.metrics import OpCounter
from repro.newhope.cca import NewHopeCcaKem
from repro.ring import KeyTransformCache
from repro.ring.ntt import get_context

from .rig import KAT_PROFILES, Rig, clock
from .stats import median, self_times

KEYGEN_REPEATS = 8

#: The simulated cost of the KAT when this benchmark was defined.  These
#: are exact and lower is better, so their regression bound is 0: a run
#: that reads above any of them has failed (``cosim.worse_than_recorded``).
#: ``BENCHMARK.json`` cannot carry the bound, because an end-to-end
#: metric there must be printed, and never be 0, on every workload.
RECORDED = {
    "cosim.sim_cycles_ise": 9_984_256,
    "cosim.sim_cycles_const_bch": 118_548_081,
    "cosim.paper_speedup_err": 0.08930865127046139,
}


class SpanLog:
    """Benchmark-side spans, kept in memory until the run ends.

    Every span carries its replayed batch's size.  A per-op metric is
    the median over batches of the time the batch spent under one name
    divided by its size, so one slow call on a shared host does not
    move it.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.batch_size = 1

    def timed(
        self,
        name: str,
        trace_id: int,
        parent: str | None,
        fn: Callable[[], Any],
        off_path: bool = False,
    ) -> Any:
        """Run ``fn`` inside a span; returns ``(result, span id)``."""
        span_id = f"{len(self.spans) + 1:08x}"
        start = clock()
        result = fn()
        duration_us = (clock() - start) * 1e6
        self.spans.append(
            {
                "name": name,
                "trace_id": f"{trace_id:016x}",
                "span_id": span_id,
                "parent_id": parent,
                "start_s": start,
                "duration_us": duration_us,
                "tags": {"batch_size": self.batch_size, "off_path": off_path},
            }
        )
        return result, span_id

    def per_call(self, name: str) -> float:
        """Median microseconds of one call under ``name`` (0 if unseen)."""
        values = [s["duration_us"] for s in self.spans if s["name"] == name]
        return median(values) if values else 0.0

    def per_op(self, name: str) -> float:
        """Median over batches of time under ``name`` per operation."""
        batches: dict[str, float] = {}
        for s in self.spans:
            if s["name"] == name:
                batches[s["trace_id"]] = (
                    batches.get(s["trace_id"], 0.0)
                    + s["duration_us"] / s["tags"]["batch_size"]
                )
        return median(list(batches.values())) if batches else 0.0


def _fo_hashes(
    log: SpanLog, trace: int, parent: str, parts: Sequence[tuple[bytes, bytes, bytes]]
) -> list[bytes]:
    """One FO-transform hash per ``(a, b, label)`` triple, as ``_hash3`` does."""
    return log.timed(
        "hashes.sha256", trace, parent,
        lambda: [sha256(a + b + label) for a, b, label in parts],
    )[0]


def _encrypt_layers(
    log: SpanLog, trace: int, parent: str, kem: LacKem, pair: Any,
    cache: KeyTransformCache, messages: list[bytes], coins: list[bytes],
) -> None:
    """The layers of one deterministic batched encryption, warm and cold."""
    params = kem.params
    ring = params.ring
    pk = pair.public_key
    rows, _ = log.timed(
        "batch.sample", trace, parent, lambda: sample_secret_rows(coins, params, 3)
    )
    s_rows = rows.astype(np.int64)[0::3]
    fp_a, fp_b, _ = key_fingerprints(params, pk, pair.secret_key)
    a = cache.operand(ring, fp_a, lambda: gen_a_vec(pk.seed_a, params))
    b = cache.operand(ring, fp_b, lambda: pk.b)
    log.timed(
        "ring.mul", trace, parent,
        lambda: ring.mul_many_multi(
            s_rows, [a.raw, b.raw], operand_transforms=[a.transform, b.transform]
        ),
    )
    log.timed("batch.bch_encode", trace, parent, lambda: encode_many(params, messages))
    log.timed(
        "ring.mul_cold", trace, None,
        lambda: ring.mul_many_multi(s_rows, [a.raw, b.raw]), off_path=True,
    )
    log.timed(
        "batch.gen_a", trace, None, lambda: gen_a_vec(pk.seed_a, params), off_path=True
    )
    log.timed(
        "ring.forward_transform", trace, None,
        lambda: ring.forward_transform(a.raw), off_path=True,
    )


def _replay_encaps(
    log: SpanLog, trace: int, kem: LacKem, pair: Any,
    cache: KeyTransformCache, messages: list[bytes],
) -> None:
    pk = pair.public_key
    log.batch_size = len(messages)
    results, parent = log.timed(
        "batch.encaps", trace, None,
        lambda: kem.encaps_many(pk, messages, cache=cache),
    )
    (pk_digest,) = _fo_hashes(log, trace, parent, [(pk.to_bytes(), b"", b"pk")])
    coins = _fo_hashes(
        log, trace, parent, [(m, pk_digest, b"coins") for m in messages]
    )
    _encrypt_layers(log, trace, parent, kem, pair, cache, messages, coins)
    blobs, _ = log.timed(
        "lac.ct_to_bytes", trace, parent,
        lambda: [r.ciphertext.to_bytes() for r in results],
    )
    digests = _fo_hashes(log, trace, parent, [(blob, b"", b"ct") for blob in blobs])
    _fo_hashes(
        log, trace, parent,
        [(m, d, b"shared") for m, d in zip(messages, digests, strict=True)],
    )
    log.timed(
        "lac.ct_from_bytes", trace, None,
        lambda: [Ciphertext.from_bytes(kem.params, blob) for blob in blobs],
        off_path=True,
    )


def _replay_decaps(
    log: SpanLog, trace: int, kem: LacKem, pair: Any,
    cache: KeyTransformCache, blobs: list[bytes],
) -> None:
    params = kem.params
    ring = params.ring
    codec = kem.pke.codec
    keys = pair.secret_key
    slots = params.v_slots
    log.batch_size = len(blobs)
    cts, _ = log.timed(
        "lac.ct_from_bytes", trace, None,
        lambda: [Ciphertext.from_bytes(params, blob) for blob in blobs],
        off_path=True,
    )
    _, parent = log.timed(
        "batch.decaps", trace, None, lambda: kem.decaps_many(keys, cts, cache=cache)
    )
    fp_s = key_fingerprints(params, pair.public_key, keys)[2]
    s_row = keys.sk.s.coeffs.astype(np.int64)[None, :]
    s = cache.operand(ring, fp_s, lambda: s_row)
    u_rows = np.stack([ct.u for ct in cts]).astype(np.int64)
    us_rows, _ = log.timed(
        "ring.mul", trace, parent,
        lambda: ring.mul_many(s.raw, u_rows, a_transform=s.transform),
    )
    log.timed(
        "ring.mul_cold", trace, None, lambda: ring.mul_many(s_row, u_rows),
        off_path=True,
    )
    v_rows = np.stack([codec.decompress_v(ct.v_compressed) for ct in cts])
    noisy = np.mod(v_rows - us_rows[:, :slots], params.q)

    def decode(rows: Any) -> list[Any]:
        return [codec.decode(r, constant_time=kem.constant_time_bch) for r in rows]

    decoded, _ = log.timed("bch.decode", trace, parent, lambda: decode(noisy))
    messages = [d.message for d in decoded]
    clean = [codec.encode(m)[:slots] for m in messages]
    log.timed("bch.decode_clean", trace, None, lambda: decode(clean), off_path=True)
    coins = _fo_hashes(
        log, trace, parent, [(m, keys.pk_digest, b"coins") for m in messages]
    )
    _encrypt_layers(log, trace, parent, kem, pair, cache, messages, coins)
    wire, _ = log.timed(
        "lac.ct_to_bytes", trace, parent,
        # the FO comparison serialises the candidate and the ciphertext
        lambda: [ct.to_bytes() for ct in cts + cts],
    )
    digests = _fo_hashes(
        log, trace, parent, [(blob, b"", b"ct") for blob in wire[: len(cts)]]
    )
    _fo_hashes(
        log, trace, parent,
        [(m, d, b"shared") for m, d in zip(messages, digests, strict=True)],
    )


def replay_lac(
    rig: Rig, observed: Sequence[tuple[str, int]], batches: int, log: SpanLog
) -> dict[str, float]:
    """Replay ``batches`` batches shaped like the ``observed`` ``(op, size)`` ones."""
    params = rig.params
    kem = LacKem(params)
    rng = random.Random(f"ledger/{rig.workload.name}/replay/{rig.seed}")
    by_op = {
        op: [r for r in rig.stream if r.op == op] for op in ("ENCAPS", "DECAPS")
    }
    shapes = [shape for shape in observed if by_op.get(shape[0])]
    for trace in range(1, batches + 1 if shapes else 1):
        op, size = rng.choice(shapes)
        # a served batch holds one key's requests
        lead = rng.choice(by_op[op])
        same_key = [r for r in by_op[op] if r.key == lead.key]
        picked = [rng.choice(same_key) for _ in range(size)]
        pair = rig.pairs[lead.key]
        cache = KeyTransformCache()
        warm_cache(cache, params, pair.public_key, pair.secret_key)
        if op == "ENCAPS":
            _replay_encaps(log, trace, kem, pair, cache, [r.blob for r in picked])
        else:
            pool = rig.pools[lead.key]
            _replay_decaps(
                log, trace, kem, pair, cache, [pool[r.item][0] for r in picked]
            )
    log.batch_size = 1
    for _ in range(KEYGEN_REPEATS):
        log.timed("lac.keygen", 0, None, lambda: kem.keygen(rng.randbytes(64)))

    on_path = [s for s in log.spans if not s["tags"]["off_path"]]
    own = self_times(on_path)
    parents = [s for s in on_path if s["name"] in ("batch.encaps", "batch.decaps")]
    glue = [own[s["span_id"]] / s["tags"]["batch_size"] for s in parents]
    covered = [1.0 - own[s["span_id"]] / s["duration_us"] for s in parents]
    return {
        "batch.encaps_us_per_op": log.per_op("batch.encaps"),
        "batch.decaps_us_per_op": log.per_op("batch.decaps"),
        "lac.keygen_us": log.per_call("lac.keygen"),
        "batch.gen_a_us_per_batch": log.per_call("batch.gen_a"),
        "batch.sample_us_per_op": log.per_op("batch.sample"),
        "ring.mul_us_per_op": log.per_op("ring.mul"),
        "ring.mul_cold_us_per_op": log.per_op("ring.mul_cold"),
        "ring.forward_transform_us": log.per_call("ring.forward_transform"),
        "batch.bch_encode_us_per_op": log.per_op("batch.bch_encode"),
        "bch.decode_us_per_word": log.per_op("bch.decode"),
        "bch.decode_clean_us_per_word": log.per_op("bch.decode_clean"),
        "hashes.sha256_us_per_op": log.per_op("hashes.sha256"),
        "lac.ct_codec_us_per_op": log.per_op("lac.ct_to_bytes")
        + log.per_op("lac.ct_from_bytes"),
        "batch.glue_us_per_op": median(glue) if glue else 0.0,
        "batch.coverage": median(covered) if covered else 0.0,
    }


def replay_newhope(rig: Rig, repeats: int, log: SpanLog) -> dict[str, float]:
    """Batch-1 NewHope ops, the permutation behind them, and one NTT."""
    scheme, params, pair = rig.scheme, rig.params, rig.pairs[0]
    kem = NewHopeCcaKem(params)
    messages = [r.blob for r in rig.stream if r.op == "ENCAPS"][:repeats]
    perms = 0
    for trace, message in enumerate(messages, 1):
        [(ct, _)], _ = log.timed(
            "newhope.encaps", trace, None,
            lambda: scheme.encaps_many(params, pair, [message]),
        )
        log.timed(
            "newhope.decaps", trace, None,
            lambda: scheme.decaps_many(params, pair, [ct]),
        )
        counter = OpCounter()
        parsed, _ = kem.encaps(pair, message, counter)
        kem.decaps(pair, parsed, counter)
        perms += counter.totals()["keccak_f"]
    state = list(range(25))
    for _ in range(repeats):
        log.timed("hashes.keccak_f1600", 0, None, lambda: keccak_f1600(state))
    poly = np.arange(params.n, dtype=np.int64)
    context = get_context(params.n)
    for _ in range(repeats):
        log.timed("ring.ntt", 0, None, lambda: context.forward(poly))
    return {
        "newhope.encaps_us": log.per_call("newhope.encaps"),
        "newhope.decaps_us": log.per_call("newhope.decaps"),
        "hashes.keccak_f1600_us": log.per_call("hashes.keccak_f1600"),
        "hashes.keccak_perms_per_op": perms / (2 * len(messages)),
        "ring.ntt_us": log.per_call("ring.ntt"),
    }


_KAT_OPS = (
    ("KEYGEN", "key_generation"),
    ("ENCAPS", "encapsulation"),
    ("DECAPS", "decapsulation"),
)
_TABLE2_CELLS = (
    ("gen_a", "gen_a"),
    ("sample_poly", "sample"),
    ("multiplication", "mul"),
    ("bch_decode", "bch"),
)


def _tallies(infos: Sequence[dict]) -> Iterator[tuple[str, Any, str, str, dict]]:
    """``(profile, params, op, offline field, served tally)`` of the KAT.

    ``infos`` holds one ``INFO`` snapshot per profile, in
    ``KAT_PROFILES`` order.
    """
    for profile, info in zip(KAT_PROFILES, infos, strict=True):
        cycles = info["backend"]["cosim"]["cycles"]
        for params in ALL_PARAMS:
            for op, field in _KAT_OPS:
                yield profile, params, op, field, cycles[f"{op}:{params.name}"]


def served_cycles(infos: Sequence[dict]) -> dict[str, float]:
    """The exact metrics the served tallies give on their own.

    Every request of one (profile, set, op) ran the same inputs, so a
    tally whose requests did not all cost what its last one did counts
    into ``cosim.served_ne_offline``; a total above ``RECORDED`` counts
    into ``cosim.worse_than_recorded``.  An end-to-end window checks
    this much: the offline model takes 2.8 s, longer than a round, and
    :func:`cosim_metrics` runs it in the traced pass.
    """
    out: dict[str, float] = {"cosim.served_ne_offline": 0}
    sets: dict[tuple[str, str], int] = {}
    for profile, params, op, _, tally in _tallies(infos):
        out["cosim.served_ne_offline"] += (
            tally["cycles"] != tally["ops"] * tally["last_cycles"]
        )
        sets[profile, params.name] = (
            sets.get((profile, params.name), 0) + tally["last_cycles"]
        )
        if profile == "ise":
            label = params.name.removeprefix("LAC-")
            out[f"cosim.ise.{label}.{op.lower()}_cycles"] = tally["last_cycles"]
    for profile in KAT_PROFILES:
        out[f"cosim.sim_cycles_{profile}"] = sum(
            cycles for (served_by, _), cycles in sets.items() if served_by == profile
        )
    out["cosim.paper_speedup_err"] = max(
        abs(sets["const_bch", name] / sets["ise", name] - paper) / paper
        for name, paper in PAPER_SPEEDUPS.items()
    )
    out["cosim.worse_than_recorded"] = sum(
        out[name] > recorded for name, recorded in RECORDED.items()
    )
    return out


def cosim_metrics(
    infos: Sequence[dict], host_seconds: float, rounds: int
) -> dict[str, float]:
    """Served cycles against the offline model, and the Table II cells.

    ``host_seconds`` timed ``rounds`` KAT rounds.  Simulated numbers are
    exact; only ``cosim.host_us_per_sim_kcycle`` is host time.
    """
    out = served_cycles(infos)
    for profile, params, _, field, tally in _tallies(infos):
        offline = int(getattr(model_cycles(params, profile), field))
        out["cosim.served_ne_offline"] += tally["last_cycles"] != offline
    for profile in KAT_PROFILES:
        for params in ALL_PARAMS:
            kernels = model_cycles(params, profile).kernels
            label = params.name.removeprefix("LAC-")
            for cell, short in _TABLE2_CELLS:
                out[f"cosim.{profile}.{label}.{short}_cycles"] = getattr(kernels, cell)
    round_kcycles = sum(out[f"cosim.sim_cycles_{p}"] for p in KAT_PROFILES) / 1e3
    out["cosim.host_us_per_sim_kcycle"] = host_seconds * 1e6 / (rounds * round_kcycles)
    return out
