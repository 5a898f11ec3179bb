"""Throughput benchmark: batched fast path vs the scalar reference.

Measures, for each LAC parameter set:

* batched ``LacKem.encaps_many`` / ``decaps_many`` against looping the
  scalar ``encaps`` / ``decaps`` (same messages, outputs asserted
  bit-identical before timing);
* the vectorized constant-time BCH decoder against the scalar engine
  (same decoder class with ``vectorized=False``), at the full error
  budget t.

Results are printed as a table and written to ``BENCH_throughput.json``
in the repository root (override with ``--output``).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke    # CI

``--smoke`` keeps the batch size (the speedups are batch-size
dependent) but trims repetitions and parameter sets so the job
finishes in seconds; it still asserts the headline speedup floors.
See ``docs/PERFORMANCE.md`` for discussion of the numbers.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from _report import finalize, platform_fields

from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_128

#: acceptance floors (also asserted by tests/test_batch_kem.py)
MIN_ENCAPS_SPEEDUP = 10.0
MIN_BCH_SPEEDUP = 5.0


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall-clock of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_noisy_word(code, n_errors: int, seed: int = 1234) -> np.ndarray:
    """A random codeword with ``n_errors`` bit flips."""
    rng = np.random.default_rng(seed)
    from repro.bch.encoder import BCHEncoder

    message = rng.integers(0, 2, code.k, dtype=np.uint8)
    word = BCHEncoder(code).encode(message).copy()
    flips = rng.choice(code.n, size=n_errors, replace=False)
    word[flips] ^= 1
    return word


def bench_kem(params, batch: int, repeats: int) -> dict:
    """Scalar-vs-batch encaps/decaps timings for one parameter set."""
    kem = LacKem(params)
    pair = kem.keygen(b"\x2a" * (params.seed_bytes + 32))
    pk, sk = pair.public_key, pair.secret_key
    messages = [bytes([i & 0xFF]) * params.message_bytes for i in range(batch)]

    # correctness gate before timing: batch must equal the scalar loop
    scalar_results = [kem.encaps(pk, m) for m in messages]
    batch_results = kem.encaps_many(pk, messages)
    for a, b in zip(scalar_results, batch_results):
        assert a.ciphertext.to_bytes() == b.ciphertext.to_bytes()
        assert a.shared_secret == b.shared_secret
    ciphertexts = [r.ciphertext for r in batch_results]
    assert [kem.decaps(sk, c) for c in ciphertexts] == kem.decaps_many(sk, ciphertexts)

    t_encaps_scalar = _best_of(
        lambda: [kem.encaps(pk, m) for m in messages], max(1, repeats // 2)
    )
    t_encaps_batch = _best_of(lambda: kem.encaps_many(pk, messages), repeats)
    t_decaps_scalar = _best_of(
        lambda: [kem.decaps(sk, c) for c in ciphertexts], max(1, repeats // 2)
    )
    t_decaps_batch = _best_of(lambda: kem.decaps_many(sk, ciphertexts), repeats)

    return {
        "params": params.name,
        "batch": batch,
        "encaps_scalar_ms_per_op": t_encaps_scalar / batch * 1e3,
        "encaps_batch_ms_per_op": t_encaps_batch / batch * 1e3,
        "encaps_speedup": t_encaps_scalar / t_encaps_batch,
        "encaps_batch_ops_per_s": batch / t_encaps_batch,
        "decaps_scalar_ms_per_op": t_decaps_scalar / batch * 1e3,
        "decaps_batch_ms_per_op": t_decaps_batch / batch * 1e3,
        "decaps_speedup": t_decaps_scalar / t_decaps_batch,
        "decaps_batch_ops_per_s": batch / t_decaps_batch,
    }


def bench_bch(params, repeats: int) -> dict:
    """Vectorized vs scalar constant-time BCH decode at full error load."""
    code = params.bch
    word = _make_noisy_word(code, code.t)
    fast = ConstantTimeBCHDecoder(code, vectorized=True)
    slow = ConstantTimeBCHDecoder(code, vectorized=False)
    assert np.array_equal(fast.decode(word).codeword, slow.decode(word).codeword)

    t_fast = _best_of(lambda: fast.decode(word), repeats)
    t_slow = _best_of(lambda: slow.decode(word), max(1, repeats // 2))
    return {
        "params": params.name,
        "code": f"BCH({code.n},{code.k},{code.t})",
        "errors": code.t,
        "decode_scalar_ms": t_slow * 1e3,
        "decode_vectorized_ms": t_fast * 1e3,
        "decode_speedup": t_slow / t_fast,
    }


def run(batch: int, repeats: int, smoke: bool, output: Path) -> dict:
    param_sets = (LAC_128,) if smoke else ALL_PARAMS
    report = {
        "benchmark": "batched KEM + vectorized BCH throughput",
        "smoke": smoke,
        "batch": batch,
        **platform_fields(),
        "kem": [bench_kem(p, batch, repeats) for p in param_sets],
        "bch": [bench_bch(p, repeats) for p in param_sets],
    }

    print(f"{'set':8} {'encaps scalar':>14} {'batch':>9} {'speedup':>8} "
          f"{'decaps speedup':>15}")
    for row in report["kem"]:
        print(
            f"{row['params']:8} {row['encaps_scalar_ms_per_op']:11.3f} ms "
            f"{row['encaps_batch_ms_per_op']:6.3f} ms {row['encaps_speedup']:7.1f}x "
            f"{row['decaps_speedup']:14.1f}x"
        )
    for row in report["bch"]:
        print(
            f"{row['params']:8} {row['code']} decode: "
            f"{row['decode_scalar_ms']:.2f} ms scalar -> "
            f"{row['decode_vectorized_ms']:.2f} ms vectorized "
            f"({row['decode_speedup']:.1f}x)"
        )

    failures = []
    for row in report["kem"]:
        if row["encaps_speedup"] < MIN_ENCAPS_SPEEDUP:
            failures.append(
                f"{row['params']}: encaps speedup {row['encaps_speedup']:.1f}x "
                f"< {MIN_ENCAPS_SPEEDUP:.0f}x"
            )
    for row in report["bch"]:
        if row["decode_speedup"] < MIN_BCH_SPEEDUP:
            failures.append(
                f"{row['params']}: BCH decode speedup {row['decode_speedup']:.1f}x "
                f"< {MIN_BCH_SPEEDUP:.0f}x"
            )
    return finalize(report, failures, output, "speedup floors not met")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=64,
                        help="operations per batch (default 64)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repetitions (default 5, smoke 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI mode: LAC-128 only, fewer repeats")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_throughput.json")
    args = parser.parse_args()
    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 5)
    run(args.batch, repeats, args.smoke, args.output)


if __name__ == "__main__":
    main()
