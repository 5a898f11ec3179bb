"""Per-key forward-transform caching for the ring multiply hot path.

Hosted KEM keys serve thousands of requests, yet every batched
multiplication used to re-derive the forward FFT of the same key-side
operand: ``PolyRing.mul_many`` transformed the hosted secret ``s`` on
every decapsulation batch, and ``mul_many_multi`` re-transformed the
public ``a`` and ``b`` polynomials on every encapsulation batch.  The
paper's FPAU wins the same way in hardware — keep the transform-domain
representation of long-lived operands resident so a polynomial product
collapses to pointwise work plus one inverse transform.

:class:`KeyTransformCache` is the software version of that register
file: a bounded, thread-safe LRU keyed by ``(ring, fingerprint)``
holding the raw operand *and* its forward ring transform
(:meth:`repro.ring.poly.PolyRing.forward_transform`).  Keeping the raw
operand alongside the transform matters for exactness — the 0.25
integrality guard of :meth:`repro.ring.poly.PolyRing.mul_many` can
always fall back to the exact convolution path, so cached and cold
multiplications stay bit-identical.

Fingerprints are **content-derived** (BLAKE2b over domain-separated
byte strings), so a stale hit is impossible by construction: a
re-registered or rotated key hashes to a different fingerprint and can
never alias another key's transform.  Explicit
:meth:`~KeyTransformCache.invalidate` therefore only reclaims memory
early (on key removal); correctness never depends on it.

Memory cost per entry: the raw operand stored one byte per coefficient
whenever its values fit one (every LAC operand does: ``a``, ``b`` in
[0, 251), ``s`` ternary) — the raw copy only feeds the exact fallback,
which up-casts it — plus the ``complex128`` transform of n/2 points
(8n bytes): about 4.5 KiB for n = 512 and 9 KiB for n = 1024.  A hosted
key populates up to three entries (``b``, the GenA expansion ``a``, and
the secret ``s``), so the default capacity of 256 entries holds roughly
85 hosted LAC-256 keys in ~2.3 MiB.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

import numpy as np

from repro.ring.poly import PolyRing

#: Default LRU capacity (entries, not keys — a hosted key uses up to 3).
DEFAULT_CACHE_ENTRIES = 256


def fingerprint(*parts: bytes) -> bytes:
    """A 16-byte content fingerprint over length-prefixed parts.

    Length-prefixing keeps the encoding injective (``(b"ab", b"c")``
    and ``(b"a", b"bc")`` hash differently); callers add a domain
    label as the first part.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return h.digest()


def _narrow_dtype(values: np.ndarray) -> type[np.integer]:
    """The one-byte dtype holding ``values`` exactly, else ``int64``."""
    lo, hi = int(values.min()), int(values.max())
    if 0 <= lo and hi <= 0xFF:
        return np.uint8
    if -0x80 <= lo and hi <= 0x7F:
        return np.int8
    return np.int64


class CachedOperand(NamedTuple):
    """One cache lookup result: the raw operand (narrow dtype — up-cast
    before doing arithmetic on it), its transform, and whether the
    entry was already resident."""

    raw: np.ndarray
    transform: np.ndarray
    hit: bool


class KeyTransformCache:
    """A bounded, thread-safe LRU of per-key ring-operand transforms.

    ``capacity`` bounds the entry count; the least recently used entry
    is evicted beyond it.  Entries are keyed by the owning ring's
    ``(n, q, negacyclic)`` triple plus a caller-supplied content
    fingerprint, so one cache can serve every parameter set at once.
    All returned arrays are marked read-only — they are shared across
    batches and threads.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_ENTRIES) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple[int, int, bool, bytes], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    @staticmethod
    def _key(ring: PolyRing, fp: bytes) -> tuple[int, int, bool, bytes]:
        return (ring.n, ring.q, ring.negacyclic, fp)

    def operand(
        self,
        ring: PolyRing,
        fp: bytes,
        produce: Callable[[], np.ndarray],
    ) -> CachedOperand:
        """The cached ``(raw, transform)`` pair for a fingerprint.

        On a miss, ``produce()`` supplies the raw operand (lazily — a
        hit never materializes it, which is what lets the encaps path
        skip the GenA expansion entirely) and its forward transform is
        computed once and stored.
        """
        key = self._key(ring, fp)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return CachedOperand(entry[0], entry[1], True)
            self.misses += 1
        # produce + transform outside the lock: the FFT is the expensive
        # part and must not serialize concurrent batches
        wide = np.asarray(produce(), dtype=np.int64)
        transform = ring.forward_transform(wide)
        raw = wide.astype(_narrow_dtype(wide))
        raw.setflags(write=False)
        transform.setflags(write=False)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # a racing batch landed first; keep one object so
                # repeated hits share memory
                self._entries.move_to_end(key)
                return CachedOperand(existing[0], existing[1], False)
            self._entries[key] = (raw, transform)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return CachedOperand(raw, transform, False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def invalidate(self, fps: Iterable[bytes]) -> int:
        """Drop every entry (across rings) for the given fingerprints.

        Returns the number of entries removed.  Purely a memory
        reclaim: content-derived fingerprints already make stale hits
        impossible.
        """
        wanted = set(fps)
        with self._lock:
            doomed = [key for key in self._entries if key[3] in wanted]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> tuple[int, int, int]:
        """``(hits, misses, evictions)`` — for cheap before/after deltas."""
        with self._lock:
            return (self.hits, self.misses, self.evictions)

    def stats(self) -> dict[str, Any]:
        """Counters for metrics/INFO export."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "CachedOperand",
    "KeyTransformCache",
    "fingerprint",
]
