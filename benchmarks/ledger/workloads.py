"""The six named workloads (names are fixed; later issues cite them).

Each row says who sends what to which keys.  ``README.md`` records why
each exists and which layer it isolates; ``BENCHMARK.json`` repeats the
one-line reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One traffic shape.

    ``loop`` is ``"closed"`` (each caller sends its next request when
    the previous reply arrives), ``"open"`` (requests fire on a seeded
    schedule regardless of replies) or ``"kat"`` (the fixed cosim
    known-answer sequence, one caller).  ``callers`` is per connection.
    ``pool`` ciphertexts are pre-made per key for DECAPS; every
    ``tamper_every``-th one is corrupted so the implicit-rejection path
    runs.  ``max_rate`` sizes the pre-generated stream of a closed loop;
    ``warmup_s`` caps the untimed load before a measured window.
    """

    name: str
    params: str
    loop: str
    conns: int
    callers: int
    keys: int = 1
    zipf_s: float | None = None
    mix: dict[str, float] = field(default_factory=dict)
    pool: int = 0
    tamper_every: int = 0
    rate: float | None = None
    max_rate: float = 0.0
    warmup_s: float = 1.0


#: ENCAPS/DECAPS replies later than this miss the open-loop latency limit.
LATENCY_LIMIT_MS = 25.0

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot-encaps", "LAC-128", "closed", conns=2, callers=32,
            mix={"ENCAPS": 1.0}, max_rate=6000.0,
        ),
        Workload(
            "hot-decaps", "LAC-256", "closed", conns=2, callers=32,
            mix={"DECAPS": 1.0}, pool=256, tamper_every=16, max_rate=1500.0,
        ),
        Workload(
            "mixed-keys", "LAC-192", "closed", conns=2, callers=24,
            keys=128, zipf_s=1.1,
            mix={"ENCAPS": 0.60, "DECAPS": 0.35, "KEYGEN": 0.05},
            pool=4, max_rate=1500.0,
        ),
        Workload(
            "open-steady", "LAC-128", "open", conns=2, callers=0,
            keys=8, mix={"ENCAPS": 2.0, "DECAPS": 1.0}, pool=16, rate=200.0,
        ),
        Workload(
            "newhope-hot", "NewHope512", "closed", conns=1, callers=8,
            mix={"ENCAPS": 1.0, "DECAPS": 1.0}, pool=16, max_rate=400.0,
        ),
        # the modelled core is single in-order: one caller, fixed inputs;
        # set-up has already served one sequence and the first whole round
        # measures no slower than later ones, so none is spent on warm-up
        Workload("cosim-kat", "LAC-128", "kat", conns=1, callers=1, warmup_s=0.0),
    )
}
