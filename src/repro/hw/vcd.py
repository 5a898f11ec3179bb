"""VCD (Value Change Dump) export for the hardware models.

The behavioral models advance cycle by cycle; this module records
their registers into standard IEEE-1364 VCD files, so the schedules of
Figs. 2-4 can be inspected in any waveform viewer (GTKWave etc.) —
the artifact a hardware engineer would actually diff against RTL
simulation.

* :class:`VcdWriter` — a minimal standalone VCD writer (header, scope,
  per-cycle value changes);
* :func:`dump_mul_gf_trace` — the 9-cycle shift-and-add schedule of
  the GF(2^9) multiplier;
* :func:`dump_mul_ter_trace` — the serialized-coefficient /
  rotating-accumulator schedule of the ternary multiplier;
* :func:`parse_vcd` — a small parser (used by the tests to verify the
  dumped transitions against the models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.gf.field import GF512
from repro.hw.mul_gf import MulGfUnit
from repro.hw.mul_ter import MulTerUnit

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


@dataclass
class _Signal:
    name: str
    width: int
    ident: str
    last: int | None = None


class VcdWriter:
    """A minimal IEEE-1364 VCD writer.

    Usage::

        writer = VcdWriter("unit")
        clk = writer.add_signal("clk", 1)
        acc = writer.add_signal("acc", 9)
        writer.begin()
        for cycle, value in enumerate(trace):
            writer.step(cycle, {clk: cycle % 2, acc: value})
        text = writer.render()
    """

    def __init__(self, module: str, timescale: str = "1ns") -> None:
        self.module = module
        self.timescale = timescale
        self._signals: list[_Signal] = []
        self._changes: list[str] = []
        self._began = False

    def add_signal(self, name: str, width: int) -> str:
        """Declare a signal; returns its identifier handle."""
        if self._began:
            raise RuntimeError("all signals must be declared before begin()")
        if width < 1:
            raise ValueError("signal width must be >= 1")
        ident = self._make_ident(len(self._signals))
        self._signals.append(_Signal(name, width, ident))
        return ident

    @staticmethod
    def _make_ident(index: int) -> str:
        base = len(_ID_CHARS)
        out = ""
        index += 1
        while index:
            index, digit = divmod(index - 1, base)
            out = _ID_CHARS[digit] + out
        return out

    def begin(self) -> None:
        """Freeze the signal list and start accepting value changes."""
        self._began = True

    def step(self, time: int, values: dict[str, int]) -> None:
        """Record the signal values at ``time`` (only changes are kept)."""
        if not self._began:
            raise RuntimeError("call begin() before stepping")
        changes = []
        by_ident = {s.ident: s for s in self._signals}
        for ident, value in values.items():
            signal = by_ident[ident]
            if signal.last == value:
                continue
            signal.last = value
            if signal.width == 1:
                changes.append(f"{value & 1}{ident}")
            else:
                changes.append(f"b{value:0{signal.width}b} {ident}")
        if changes:
            self._changes.append(f"#{time}")
            self._changes.extend(changes)

    def render(self) -> str:
        """The complete VCD file as text."""
        header = [
            "$date repro $end",
            "$version repro.hw.vcd $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.module} $end",
        ]
        for signal in self._signals:
            header.append(
                f"$var wire {signal.width} {signal.ident} {signal.name} $end"
            )
        header += ["$upscope $end", "$enddefinitions $end"]
        return "\n".join(header + self._changes) + "\n"

    def write(self, path: str | Path) -> Path:
        """Render and write the VCD file to ``path``."""
        path = Path(path)
        path.write_text(self.render())
        return path


# ---------------------------------------------------------------------------
# instrumented traces of the accelerator models
# ---------------------------------------------------------------------------


def dump_mul_gf_trace(a: int, b: int, path: str | Path) -> Path:
    """Trace one MUL GF multiplication (Fig. 3) into a VCD file.

    Signals: clk, en, the serialized b bit, and the c shift register.
    """
    unit = MulGfUnit()
    writer = VcdWriter("mul_gf")
    clk = writer.add_signal("clk", 1)
    en = writer.add_signal("en", 1)
    b_bit = writer.add_signal("b_bit", 1)
    c_reg = writer.add_signal("c", unit.m)
    a_in = writer.add_signal("a", unit.m)
    writer.begin()

    unit.load(a, b)
    writer.step(0, {clk: 0, en: 1, a_in: a, c_reg: 0,
                    b_bit: (b >> (unit.m - 1)) & 1})
    cycle = 0
    while unit._running:
        bit_index = unit._bit_index
        unit.tick()
        cycle += 1
        writer.step(2 * cycle - 1, {clk: 1})
        writer.step(2 * cycle, {
            clk: 0,
            c_reg: unit.c,
            en: 1 if unit._running else 0,
            b_bit: (b >> max(bit_index - 1, 0)) & 1,
        })
    assert unit.c == GF512.mul(a, b)
    return writer.write(path)


def dump_mul_ter_trace(
    ternary: np.ndarray,
    general: np.ndarray,
    path: str | Path,
    negacyclic: bool = True,
) -> Path:
    """Trace a MUL TER computation (Fig. 2) into a VCD file.

    Signals: clk, the cntr counter, the serialized ternary coefficient
    (2-bit code), conv_n, and the first four result registers.
    """
    length = ternary.size
    unit = MulTerUnit(length)
    for index in range(0, length, 5):
        stop = min(index + 5, length)
        unit.load_coefficients(
            index,
            [int(x) % unit.q for x in general[index:stop]],
            [int(x) for x in ternary[index:stop]],
        )

    writer = VcdWriter("mul_ter")
    clk = writer.add_signal("clk", 1)
    cntr = writer.add_signal("cntr", max(length.bit_length(), 1))
    a_i = writer.add_signal("a_i", 2)
    conv = writer.add_signal("conv_n", 1)
    regs = [writer.add_signal(f"c{i}", 8) for i in range(min(4, length))]
    running = writer.add_signal("running", 1)
    writer.begin()

    code = {0: 0b00, 1: 0b01, -1: 0b10}
    unit.start(negacyclic)
    writer.step(0, {clk: 0, cntr: 0, conv: int(negacyclic), running: 1,
                    a_i: code[int(ternary[0])],
                    **{regs[i]: 0 for i in range(len(regs))}})
    cycle = 0
    while unit._running:
        current = unit._cntr
        unit.tick()
        cycle += 1
        writer.step(2 * cycle - 1, {clk: 1})
        values = {
            clk: 0,
            cntr: unit._cntr,
            running: 1 if unit._running else 0,
        }
        if unit._running:
            values[a_i] = code[int(ternary[unit._cntr])]
        for i, ident in enumerate(regs):
            values[ident] = int(unit.registers[i])
        writer.step(2 * cycle, values)
    return writer.write(path)


# ---------------------------------------------------------------------------
# a small parser, for verification
# ---------------------------------------------------------------------------


@dataclass
class VcdTrace:
    """Parsed VCD content: signal names and value timelines."""

    signals: dict[str, str] = field(default_factory=dict)  # name -> ident
    changes: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    def timeline(self, name: str) -> list[tuple[int, int]]:
        """The (time, value) changes of a signal, in order."""
        return self.changes.get(self.signals[name], [])

    def value_at(self, name: str, time: int) -> int | None:
        """The signal's value at ``time`` (None before its first change)."""
        value = None
        for t, v in self.timeline(name):
            if t > time:
                break
            value = v
        return value


def parse_vcd(text: str) -> VcdTrace:
    """Parse the subset of VCD this module emits."""
    trace = VcdTrace()
    time = 0
    in_header = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if in_header:
            if line.startswith("$var"):
                parts = line.split()
                width, ident, name = parts[2], parts[3], parts[4]
                trace.signals[name] = ident
                trace.changes[ident] = []
            elif line.startswith("$enddefinitions"):
                in_header = False
            continue
        if line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b"):
            bits, ident = line[1:].split()
            trace.changes[ident].append((time, int(bits, 2)))
        else:
            value, ident = int(line[0]), line[1:]
            trace.changes[ident].append((time, value))
    return trace
