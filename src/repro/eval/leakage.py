"""Timing-leakage analysis of the BCH decoders (Sec. VI-A).

The paper's motivation for the constant-time baseline is the
D'Anvers et al. attack [14]: decode time leaks the error count, which
correlates with the secret key.  This module provides the statistical
machinery to demonstrate the leak on our cycle model:

* cycle distributions of each decoder as a function of the injected
  error count;
* Welch's t-test between the 0-error and max-error distributions (the
  standard TVLA-style fixed-vs-fixed leakage test [15] runs);
* a simple distinguisher that estimates the error count from a single
  decode time (linear inversion on the error-locator phase).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bch.code import BCHCode, LAC_BCH_128_256
from repro.bch.encoder import BCHEncoder
from repro.cosim.costs import price
from repro.cosim.protocol import PROFILE_TABLE
from repro.eval.table1 import DECODER_NAMES
from repro.metrics import OpCounter


@dataclass(frozen=True)
class LeakageReport:
    """Outcome of one fixed-vs-fixed leakage test."""

    decoder: str
    samples_per_class: int
    mean_low: float
    mean_high: float
    std_low: float
    std_high: float
    t_statistic: float

    @property
    def leaks(self) -> bool:
        """|t| > 4.5 is the conventional TVLA rejection threshold."""
        return abs(self.t_statistic) > 4.5


def _profile(constant_time: bool) -> str:
    """Table I's two decoders: the constant-time and the submission one."""
    return "const_bch" if constant_time else "ref"


def _decode_cycles(
    profile: str, code: BCHCode, errors: int, rng: np.random.Generator
) -> int:
    """Priced cycles of one random word's decode by ``profile``'s decoder."""
    entry = PROFILE_TABLE[profile]
    message = rng.integers(0, 2, code.k).astype(np.uint8)
    codeword = BCHEncoder(code).encode(message)
    if errors:
        positions = rng.choice(code.n, size=errors, replace=False)
        codeword[positions] ^= 1
    counter = OpCounter()
    entry.decoder(code).decode(codeword, counter)
    return price(counter, entry.costs)


def cycle_distribution(
    constant_time: bool,
    errors: int,
    samples: int = 20,
    code: BCHCode = LAC_BCH_128_256,
    seed: int = 7,
) -> np.ndarray:
    """Decode ``samples`` random words with a fixed error count."""
    rng = np.random.default_rng(seed)
    profile = _profile(constant_time)
    return np.array(
        [_decode_cycles(profile, code, errors, rng) for _ in range(samples)],
        dtype=np.int64,
    )


def welch_t(a: np.ndarray, b: np.ndarray) -> float:
    """Welch's t statistic (0 when both classes are exactly constant)."""
    var_a = a.var(ddof=1) if a.size > 1 else 0.0
    var_b = b.var(ddof=1) if b.size > 1 else 0.0
    denominator = np.sqrt(var_a / a.size + var_b / b.size)
    difference = a.mean() - b.mean()
    if denominator == 0:
        return 0.0 if difference == 0 else np.inf * np.sign(difference)
    return float(difference / denominator)


def leakage_test(
    constant_time: bool,
    samples: int = 20,
    code: BCHCode = LAC_BCH_128_256,
    seed: int = 7,
) -> LeakageReport:
    """Fixed-vs-fixed test: 0 errors vs. t errors."""
    low = cycle_distribution(constant_time, 0, samples, code, seed)
    high = cycle_distribution(constant_time, code.t, samples, code, seed + 1)
    return LeakageReport(
        decoder=DECODER_NAMES[_profile(constant_time)],
        samples_per_class=samples,
        mean_low=float(low.mean()),
        mean_high=float(high.mean()),
        std_low=float(low.std(ddof=1)) if samples > 1 else 0.0,
        std_high=float(high.std(ddof=1)) if samples > 1 else 0.0,
        t_statistic=welch_t(low, high),
    )


@dataclass(frozen=True)
class DistinguisherReport:
    """Error-count recovery from single decode times."""

    decoder: str
    attempts: int
    exact_hits: int
    mean_absolute_error: float


def error_count_distinguisher(
    constant_time: bool,
    attempts: int = 24,
    code: BCHCode = LAC_BCH_128_256,
    seed: int = 11,
    traces_per_attempt: int = 6,
    grid_step: int = 8,
) -> DistinguisherReport:
    """Estimate hidden error counts from decode cycle counts.

    Calibrates mean decode time per error count (the attacker's
    profiling phase), then classifies *averaged* fresh decode times by
    nearest profile mean — averaging over several traces suppresses the
    codeword-weight noise of the syndrome phase, exactly as the attack
    of [14] aggregates measurements.  Against the submission decoder
    this recovers the hidden count reliably (the error-locator phase
    scales with it); against the constant-time decoder it degenerates
    to chance because all classes share one timing.
    """
    rng = np.random.default_rng(seed)
    decoder_profile = _profile(constant_time)
    error_grid = list(range(0, code.t + 1, grid_step))

    profile = {
        e: float(
            np.mean(
                [_decode_cycles(decoder_profile, code, e, rng)
                 for _ in range(traces_per_attempt)]
            )
        )
        for e in error_grid
    }

    hits = 0
    absolute_errors = []
    for _ in range(attempts):
        hidden = int(rng.choice(error_grid))
        observed = float(
            np.mean(
                [_decode_cycles(decoder_profile, code, hidden, rng)
                 for _ in range(traces_per_attempt)]
            )
        )
        guess = min(profile, key=lambda e: abs(profile[e] - observed))
        hits += guess == hidden
        absolute_errors.append(abs(guess - hidden))
    return DistinguisherReport(
        decoder=DECODER_NAMES[decoder_profile],
        attempts=attempts,
        exact_hits=hits,
        mean_absolute_error=float(np.mean(absolute_errors)),
    )
