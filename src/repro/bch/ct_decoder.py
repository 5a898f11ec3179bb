"""Walters/Roy-style constant-time BCH decoder.

The decoder executes an input-independent schedule (the property the
paper's Table I verifies and that [15] proved by leakage testing):

* syndromes are accumulated over *every* transmitted position,
  masking the contribution instead of branching on the bit value;
* the error locator is computed with the inversion-free
  Berlekamp--Massey algorithm over a fixed number of iterations with
  fixed-size coefficient arrays and branch-free (mask-select) updates;
* the Chien search walks the whole message window with the fixed
  t+1-slot schedule and flips bits through masks.

Field multiplications use the shift-and-add schedule
(:meth:`repro.gf.field.GF2m.mul_shift_add`, the same data path as the
MUL GF hardware module) and are charged as ``gf_mul_ct``, which the
cost model prices at the software cost of a branch-free GF(2^9)
multiply — the very overhead that makes the protected decoder ~3x
slower in Table I and motivates the MUL CHIEN accelerator.

Because that schedule is fixed, the decoder computes its values on a
numpy engine with the batch as the vector axis (one word is a one-row
stack), over one set of per-code tables, and charges each phase's
per-word operation counts once per phase (:func:`_schedule`), counted
or not.  The per-iteration annotated loops stay as the golden model
(:meth:`ConstantTimeBCHDecoder._decode_scalar`); the test suite holds
the two equal, values and counts phase by phase.  For array code
"constant" means that the shapes and the sequence of numpy calls depend
on the batch size, the code and the window only — never on a received
bit, a syndrome or a root (``tests/test_constant_ops.py`` traces it).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bch.code import BCHCode
from repro.bch.decoder import DecodeResult, _degree
from repro.bitutils import require_bits
from repro.metrics import NullCounter, OpCounter, ensure_counter

#: Lanes folded per numpy call in the masked-XOR products: bounds the
#: transient (~0.35 MiB in the Chien sweep) whatever the batch size.
_LANE_CHUNK = 4


@dataclass(frozen=True)
class _CodeTables:
    """What the lanes engine precomputes for one code (read-only).

    The syndrome and Chien tables are GF(2)-linear maps stored with the
    axis that is folded away last, so a product is
    ``xor.reduce(mask & table)`` over contiguous rows: no gather, no
    float, the same memory walk for every input.
    """

    #: ``(2t, n)`` int16: ``alpha^(i*j)`` at ``[j - 1, i]`` — received
    #: bit i to syndrome j.
    syndrome_powers: np.ndarray
    #: ``(m, W, (t+1)*m)`` uint64: locator bit b of ``lambda_j`` (last
    #: axis, ``j*m + b``) to value bit k (first axis) of
    #: ``Lambda(alpha^l)`` at every probe of the natural window, probe l
    #: being bit ``l - 1`` of the W words read as little-endian bytes.
    chien_bits: np.ndarray
    #: ``((4t+1) * order,)`` bool and unsigned: Berlekamp--Massey's
    #: control as a state machine.  A lane's ``k = r - 2L`` (-2t..2t)
    #: is kept as the key ``(k + 2t) * order``; with the round's
    #: discrepancy d, ``bm_take[key + d]`` says whether the round resets
    #: the shadow register (d != 0 and 2L <= r) and ``bm_next[key + d]``
    #: is the next round's key.
    bm_take: np.ndarray
    bm_next: np.ndarray

    @property
    def nbytes(self) -> int:
        """Persistent footprint of all tables."""
        return sum(
            table.nbytes
            for table in (self.syndrome_powers, self.chien_bits, self.bm_take, self.bm_next)
        )


@lru_cache(maxsize=None)
def _code_tables(code: BCHCode) -> _CodeTables:
    """Build the tables of ``code`` once per process (lazily, on first use)."""
    field, t, m = code.field, code.t, code.field.m
    # narrow dtypes throughout: the build's transients count towards the
    # process's peak RSS just like the tables do
    powers = field.exp_table[: code.n_full].astype(np.int16)
    shifts = np.arange(m, dtype=np.int16)

    orders = np.arange(1, 2 * t + 1, dtype=np.int32)[:, None]
    positions = np.arange(code.n, dtype=np.int32)
    syndrome_powers = powers[orders * positions % code.n_full]

    # multiplying by the constant alpha^(l*j) is GF(2)-linear in the
    # bits of lambda_j: bit b contributes alpha^(b + l*j)
    probes = np.arange(1, code.n_full + 1, dtype=np.int32)
    probe_bytes = -(-code.n_full // 8)
    packed = np.zeros(  # probe rows padded to whole uint64 words
        ((t + 1) * m, m, -(-probe_bytes // 8) * 8), dtype=np.uint8
    )
    for j in range(t + 1):  # one order at a time
        terms = powers[(shifts[:, None] + probes * j) % code.n_full]
        value_bits = (terms[:, None, :] >> shifts[:, None]) & 1
        packed[j * m : (j + 1) * m, :, :probe_bytes] = np.packbits(
            value_bits.astype(np.uint8), axis=2, bitorder="little"
        )

    # a reset round sends k = r - 2L to -k - 1, any other to k + 1
    # (clamped at 2t, which only the state after the last round reaches)
    k = np.arange(-2 * t, 2 * t + 1, dtype=np.int32)[:, None]
    take = (np.arange(field.order) != 0) & (k >= 0)
    next_k = np.where(take, -k - 1, np.minimum(k + 1, 2 * t))

    tables = _CodeTables(
        syndrome_powers=syndrome_powers,
        chien_bits=np.ascontiguousarray(packed.view(np.uint64).transpose(1, 2, 0)),
        bm_take=take.ravel(),
        bm_next=((next_k + 2 * t) * field.order)
        .astype(np.min_scalar_type(take.size))
        .ravel(),
    )
    for table in (tables.syndrome_powers, tables.chien_bits, tables.bm_take, tables.bm_next):
        table.setflags(write=False)
    return tables


#: One phase's per-word operation counts: ``(op, n)`` pairs.
PhaseCounts = tuple[tuple[str, int], ...]


@lru_cache(maxsize=None)
def _schedule(code: BCHCode, window: str) -> dict[str, PhaseCounts]:
    """What the golden loops charge per word, phase by phase.

    Every count is fixed by ``code`` and ``window`` alone — that is the
    constant-time property — so each phase is charged once, with these
    totals; ops are listed in the order the loops first charge them.
    The test suite holds them equal to the loops' counts.
    """
    n, t = code.n, code.t
    two_t, size = 2 * t, t + 1
    start, stop = code.chien_window(window)
    probes = stop - start + 1
    # syndrome: per position loop/load/mask, per (position, order)
    # loop/load/2 alu/gf_add (see _syndromes_scalar)
    pairs = n * two_t
    # error_locator: 2t rounds of a t+1-term discrepancy, a t+1-term
    # update and a t+1-term masked shadow select (see _inversion_free_bm)
    return {
        "syndrome": (
            ("call", 1),
            ("loop", n + pairs),
            ("load", n + pairs),
            ("alu", n + 2 * pairs),
            ("gf_add", pairs),
        ),
        "error_locator": (
            ("call", 1),
            ("loop", two_t),
            ("gf_mul_ct", 3 * size * two_t),
            ("gf_add", 2 * size * two_t),
            ("load", 2 * size * two_t),
            ("store", 2 * size * two_t),
            ("alu", (6 + 2 * size) * two_t),
        ),
        # chien: t start terms, then per probe a t-term sum, the masked
        # root test and flip, and t term updates (see _chien_flip_scalar)
        "chien": (
            ("call", 1),
            ("gf_mul_ct", t + t * probes),
            ("loop", probes),
            ("gf_add", t * probes),
            ("load", (t + 1) * probes),
            ("alu", 4 * probes),
            ("store", (t + 1) * probes),
        ),
    }


def _charge(counter: OpCounter, phase: str, counts: PhaseCounts, words: int) -> None:
    """Charge ``words`` runs of one phase's fixed ``counts`` at once."""
    with counter.phase(phase):
        for op, n in counts:
            counter.count(op, n * words)


def _mask_select(mask: int, if_true: int, if_false: int) -> int:
    """Branch-free select: mask is 0 or all-ones (here modelled as 0/1)."""
    return if_true if mask else if_false


class ConstantTimeBCHDecoder:
    """Constant-time BCH decoder (Walters & Roy, IACR ePrint 2019/155 style).

    Two execution engines share the same mathematics:

    * the numpy *lanes* engine over the per-code tables of
      :func:`_code_tables`, which every decode runs: the fixed schedule
      with the batch as the vector axis, one word being a one-row
      stack.  A live :class:`~repro.metrics.OpCounter` is charged each
      phase's fixed per-word counts once per phase;
    * the *annotated* per-iteration loops (:meth:`_decode_scalar`): the
      golden model, counting every operation as it executes.  The test
      suite holds the lanes engine to it, bit for bit and count for
      count, and times the engine against it for its speedup floor.
    """

    def __init__(self, code: BCHCode) -> None:
        self.code = code
        self.field = code.field

    def _ct_mul(self, counter: OpCounter) -> Callable[[int, int], int]:
        """The constant-time multiply of the golden loops.

        When operations are being counted, the genuine shift-and-add
        schedule runs (and is charged as ``gf_mul_ct``).  On the
        purely functional path the bit-identical table multiply is
        substituted — same outputs (a tested invariant of
        :class:`~repro.gf.field.GF2m`), ~10x less interpreter work.
        """
        if isinstance(counter, NullCounter):
            return self.field.mul
        return self.field.mul_shift_add

    # ------------------------------------------------------------------

    def decode(
        self,
        received: np.ndarray,
        counter: OpCounter | None = None,
        window: str = "natural",
    ) -> DecodeResult:
        """Correct up to t errors with an input-independent schedule.

        ``window`` selects the Chien probe range; the software decoder
        of [15] probes the ``"natural"`` full-length window (constant,
        conservative), the paper's optimized variant only the
        ``"message"`` positions.
        """
        received = require_bits(received, self.code.n, "received")
        return self._decode(received[None], ensure_counter(counter), window)[0]

    def decode_many(
        self,
        words: np.ndarray,
        counter: OpCounter | None = None,
        window: str = "natural",
    ) -> list[DecodeResult]:
        """Decode a ``(B, n)`` stack of words; equals looping :meth:`decode`.

        The lanes engine runs the whole stack at once and charges
        ``counter`` B times each phase's per-word counts, so counts equal
        those of B one-word decodes.
        """
        code = self.code
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != code.n:
            raise ValueError(f"words must be a (B, {code.n}) array of bits")
        if np.any(words > 1):
            raise ValueError("words must contain only 0s and 1s")
        if not len(words):
            return []
        return self._decode(words, ensure_counter(counter), window)

    def _decode(
        self, words: np.ndarray, counter: OpCounter, window: str
    ) -> list[DecodeResult]:
        """Decode a non-empty ``(B, n)`` stack of validated words."""
        code = self.code
        working = words.copy()
        locators = self.error_locators(working, counter)
        flips, roots_found = self._chien_flip_lanes(working, locators, window)
        _charge(counter, "chien", _schedule(code, window)["chien"], len(working))

        degrees = ((locators != 0) * np.arange(code.t + 1)).max(axis=1)
        if window == "message":
            success = (degrees <= code.t) & (flips <= degrees)
        else:
            success = (roots_found == degrees) & (flips == roots_found)
        messages = working[:, code.parity_bits :].copy()
        return [
            DecodeResult(
                codeword=working[lane],
                message=messages[lane],
                errors_found=int(flips[lane]),
                success=bool(success[lane]),
                counter=counter,
            )
            for lane in range(len(working))
        ]

    def _decode_scalar(
        self,
        received: np.ndarray,
        counter: OpCounter | None = None,
        window: str = "natural",
    ) -> DecodeResult:
        """One valid word through the golden per-iteration loops."""
        code = self.code
        counter = ensure_counter(counter)
        working = received.copy()
        syndromes = self._syndromes_scalar(working, counter)
        locator = self._inversion_free_bm(syndromes, counter)
        flips, roots_found = self._chien_flip_scalar(working, locator, counter, window)

        message = working[code.parity_bits :].copy()
        locator_degree = _degree(locator)
        if window == "message":
            success = locator_degree <= code.t and flips <= locator_degree
        else:
            success = roots_found == locator_degree and flips == roots_found
        return DecodeResult(
            codeword=working,
            message=message,
            errors_found=flips,
            success=success,
            counter=counter,
        )

    def error_locators(self, words: np.ndarray, counter: OpCounter) -> np.ndarray:
        """``(B, n)`` words to ``(B, t+1)`` error locators (phases 1 and 2).

        Charges ``counter`` the syndrome and error-locator phases of
        every word; the software half of the accelerated decoder too.
        """
        schedule = _schedule(self.code, "natural")
        syndromes = self._syndromes_lanes(words)
        _charge(counter, "syndrome", schedule["syndrome"], len(words))
        locators = self._inversion_free_bm_lanes(syndromes)
        _charge(counter, "error_locator", schedule["error_locator"], len(words))
        return locators

    # ------------------------------------------------------------------
    # phase 1: dense, masked syndrome accumulation
    # ------------------------------------------------------------------

    def _syndromes_lanes(self, words: np.ndarray) -> np.ndarray:
        """``(B, n)`` words to ``(B, 2t)`` syndromes (no counting).

        Computes exactly the masked dense accumulation of the scalar
        schedule: term ``alpha^(i*j)`` is ANDed with the received bit
        stretched to a mask (all-zeros or all-ones) and XOR-folded over
        every transmitted position.
        """
        powers = _code_tables(self.code).syndrome_powers
        masks = -words.astype(np.int16)
        syndromes = np.empty((len(words), len(powers)), dtype=np.int16)
        for lo in range(0, len(words), _LANE_CHUNK):
            chunk = slice(lo, lo + _LANE_CHUNK)
            np.bitwise_xor.reduce(
                masks[chunk, None, :] & powers, axis=2, out=syndromes[chunk]
            )
        return syndromes.astype(np.intp)

    def _syndromes_scalar(self, received: np.ndarray, counter: OpCounter) -> list[int]:
        code, field = self.code, self.field
        two_t = 2 * code.t
        syndromes = [0] * two_t
        with counter.phase("syndrome"):
            counter.count("call")
            for i in range(code.n):
                counter.count("loop")
                counter.count("load")
                bit_mask = int(received[i])  # 0 or 1; no branch taken on it
                counter.count("alu")  # mask expansion
                for j in range(1, two_t + 1):
                    term = field.alpha_pow(i * j)
                    counter.count("loop")
                    counter.count("load")   # antilog table
                    counter.count("alu", 2)  # exponent arithmetic + masking
                    counter.count("gf_add")
                    syndromes[j - 1] ^= term * bit_mask
        return syndromes

    # ------------------------------------------------------------------
    # phase 2: inversion-free Berlekamp--Massey, fixed schedule
    # ------------------------------------------------------------------

    def _inversion_free_bm(self, syndromes: list[int], counter: OpCounter) -> list[int]:
        code, field = self.code, self.field
        t = code.t
        two_t = 2 * t
        size = t + 1

        locator = [0] * size
        locator[0] = 1
        shadow = [0] * size
        shadow[0] = 1
        delta = 1
        length = 0
        ct_mul = self._ct_mul(counter)

        with counter.phase("error_locator"):
            counter.count("call")
            for r in range(two_t):
                counter.count("loop")
                # discrepancy over a fixed t+1-term window
                discrepancy = 0
                for i in range(size):
                    s = syndromes[r - i] if 0 <= r - i < two_t else 0
                    discrepancy ^= ct_mul(locator[i], s)
                    counter.count("gf_mul_ct")
                    counter.count("gf_add")
                    counter.count("load", 2)

                # locator' = delta * locator - discrepancy * x * shadow
                updated = [0] * size
                for i in range(size):
                    left = ct_mul(delta, locator[i])
                    right = ct_mul(
                        discrepancy, shadow[i - 1] if i > 0 else 0
                    )
                    updated[i] = left ^ right
                    counter.count("gf_mul_ct", 2)
                    counter.count("gf_add")
                    counter.count("store")

                # branch-free control: decide whether this round resets
                # the shadow register (d != 0 and 2L <= r)
                take = 1 if (discrepancy != 0 and 2 * length <= r) else 0
                counter.count("alu", 4)  # flag computation, no branch
                new_shadow = [0] * size
                for i in range(size):
                    via_reset = locator[i]
                    via_shift = shadow[i - 1] if i > 0 else 0
                    new_shadow[i] = _mask_select(take, via_reset, via_shift)
                    counter.count("alu", 2)  # two masked selects
                    counter.count("store")
                delta = _mask_select(take, discrepancy, delta)
                length = _mask_select(take, r + 1 - length, length)
                counter.count("alu", 2)

                locator = updated
                shadow = new_shadow
        return locator

    def _inversion_free_bm_lanes(self, syndromes: np.ndarray) -> np.ndarray:
        """``(B, 2t)`` syndromes to ``(B, t+1)`` locators, 2t fixed rounds.

        The scalar schedule with every scalar a ``(B,)`` column, in as
        few numpy calls a round as it takes (a one-word decode pays per
        call).  The locator and the shadow register multiplied by x are
        carried as logarithms (zero-safe tables: a product of logs needs
        no zero test) in the two rows of one register array, each in a
        window that moves one slot left per round: the shadow's shift by
        x is then no copy, and the reset round copies the locator row
        over the shadow row where the lane resets.  The row ends hold
        log d (locator row) and log delta (shadow row), so that copy
        also sets delta = d.  The control (reset or not, and L) is one
        table lookup (:attr:`_CodeTables.bm_take`).
        """
        t = self.code.t
        lanes = len(syndromes)
        log, exp = self.field.zero_safe_tables()
        tables = _code_tables(self.code)

        # round r reads S[r], S[r-1] .. S[r-t] (zero below index 0): a
        # contiguous window of the reversed, zero-padded syndromes
        reversed_padded = np.zeros((lanes, 3 * t), dtype=np.intp)
        reversed_padded[:, : 2 * t] = syndromes[:, ::-1]
        log_syndromes = log[reversed_padded]

        # round r's window starts at column 2t - r; the locator is 1, the
        # shifted shadow x, delta 1, and every column left of a window log 0
        registers = np.full((2, lanes, 3 * t + 2), log[0])
        registers[0, :, 2 * t] = log[1]
        registers[1, :, 2 * t + 1] = log[1]
        registers[1, :, -1] = log[1]
        multipliers = registers[::-1, :, -1:]  # [log delta, log d]
        key = np.full((lanes, 1), 2 * t * self.field.order)  # k = 0

        for r in range(2 * t):
            start = 2 * t - r
            window = registers[:, :, start : start + t + 1]
            discrepancy = np.bitwise_xor.reduce(
                exp[window[0] + log_syndromes[:, 2 * t - 1 - r : 3 * t - r]],
                axis=1,
                keepdims=True,
            )
            registers[0, :, -1:] = log[discrepancy]
            # locator' = delta * locator - discrepancy * x * shadow
            terms = exp[window + multipliers]
            key = key + discrepancy
            take = tables.bm_take[key]
            key = tables.bm_next[key]
            # a reset round: shadow = locator, delta = d
            np.copyto(registers[1, :, start:], registers[0, :, start:], where=take)
            locator = terms[0] ^ terms[1]
            registers[0, :, start - 1 : start + t] = log[locator]
        return locator

    # ------------------------------------------------------------------
    # phase 3: Chien search + masked correction over the message window
    # ------------------------------------------------------------------

    def _chien_slices(self, window: str) -> tuple[slice, slice, slice]:
        """The fixed index sets of one probe window.

        Returns ``(probes, flagged, positions)``: the window's rows of
        the natural-window tables, the probes within the window that
        flag a transmitted position, and the positions they flag.  A
        root at ``alpha^l`` flags position ``n_full - l``, so
        ``positions`` runs against ``flagged``: flip with
        ``word[positions] ^= is_root[flagged][::-1]``.
        """
        code = self.code
        start, stop = code.chien_window(window)
        first = max(start, code.n_full - code.n + 1)
        return (
            slice(start - 1, stop),
            slice(first - start, stop - start + 1),
            slice(code.n_full - stop, code.n_full - first + 1),
        )

    def _chien_flip_lanes(
        self, working: np.ndarray, locators: np.ndarray, window: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full Chien sweep of a ``(B, n)`` stack (no counting).

        The scalar schedule steps ``terms[j] = lambda_j * alpha^(l*j)``
        one probe at a time.  Here every bit of ``Lambda(alpha^l)`` at
        every probe is a parity over the ``(t+1)*m`` locator bits: each
        bit, stretched to a mask, selects its row of probe words and the
        rows are XOR-folded.  The whole natural window is always swept
        (it is one table; narrower windows slice the result); a probe is
        a root when none of its m value bits is set.  Corrects
        ``working`` in place through the window's fixed slices and
        returns ``(flips, roots_found)`` per lane.
        """
        m = self.field.m
        lanes = len(working)
        probes, flagged, positions = self._chien_slices(window)
        table = _code_tables(self.code).chien_bits
        bits = ((locators[:, :, None] >> np.arange(m)) & 1).reshape(lanes, -1)
        masks = (-bits).astype(np.uint64)  # 0 or all ones

        values = np.empty((lanes,) + table.shape[:2], dtype=np.uint64)
        for lo in range(0, lanes, _LANE_CHUNK):
            chunk = slice(lo, lo + _LANE_CHUNK)
            np.bitwise_xor.reduce(
                masks[chunk, None, None, :] & table, axis=3, out=values[chunk]
            )
        nonzero = np.bitwise_or.reduce(values, axis=1).view(np.uint8)
        is_root = np.unpackbits(nonzero, axis=1, bitorder="little")[:, probes] == 0

        hits = is_root[:, flagged]
        working[:, positions] ^= hits[:, ::-1]
        return np.count_nonzero(hits, axis=1), np.count_nonzero(is_root, axis=1)

    def _chien_flip_scalar(
        self,
        working: np.ndarray,
        locator: list[int],
        counter: OpCounter,
        window: str,
    ) -> tuple[int, int]:
        code, field = self.code, self.field
        t = code.t
        start, stop = code.chien_window(window)

        ct_mul = self._ct_mul(counter)
        terms = [
            ct_mul(locator[j], field.alpha_pow(start * j))
            for j in range(1, t + 1)
        ]
        steps = [field.alpha_pow(j) for j in range(1, t + 1)]
        flips = 0
        roots_found = 0

        with counter.phase("chien"):
            counter.count("call")
            counter.count("gf_mul_ct", t)
            for l in range(start, stop + 1):
                counter.count("loop")
                value = locator[0]
                for j in range(t):
                    value ^= terms[j]
                    counter.count("gf_add")
                    counter.count("load")
                # branch-free root test: is_root = (value == 0) as a mask
                is_root = 1 if value == 0 else 0
                roots_found += is_root
                counter.count("alu", 3)  # normalize-to-mask sequence

                position = code.position_of_root(l)
                if position < code.n:
                    working[position] ^= is_root
                    flips += is_root
                counter.count("load")
                counter.count("store")
                counter.count("alu")

                for j in range(t):
                    terms[j] = ct_mul(terms[j], steps[j])
                    counter.count("gf_mul_ct")
                    counter.count("store")
        return flips, roots_found
