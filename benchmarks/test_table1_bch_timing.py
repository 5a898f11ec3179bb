"""Table I: cycle count of BCH(511,367,16) decoding on RISC-V.

Regenerates the submission-decoder vs. Walters-decoder comparison at 0
and 16 errors, printing model-vs-paper per phase, and benchmarks the
wall-clock of one cycle-accounted decode of each kind.
"""

import pytest

from benchmarks.conftest import emit
from repro.eval.reporting import format_table
from repro.eval.table1 import PAPER_TABLE1, generate_table1, measure_decode


@pytest.fixture(scope="module")
def rows():
    return generate_table1()


def _comparison_table(rows):
    lines = []
    for model, paper in zip(rows, PAPER_TABLE1):
        lines.append((
            model.scheme, model.fails,
            model.syndrome, paper.syndrome,
            model.error_locator, paper.error_locator,
            model.chien, paper.chien,
            model.decode, paper.decode,
            model.decode / paper.decode,
        ))
    return format_table(
        ["Scheme", "Fails",
         "Syndr.", "(paper)", "ErrLoc", "(paper)",
         "Chien", "(paper)", "Decode", "(paper)", "ratio"],
        lines,
        title="Table I — BCH(511,367,16) decode cycles on RISC-V",
    )


def test_table1_report(rows):
    emit(_comparison_table(rows))
    # shape assertions: what the paper's Table I demonstrates
    subm0, subm16, ct0, ct16 = rows
    # 1. the submission decoder is NOT constant time
    assert subm16.decode - subm0.decode > 1_000
    assert subm16.error_locator > 10 * subm0.error_locator
    # 2. the Walters decoder IS constant time
    assert ct0.decode == ct16.decode
    # 3. the protection costs ~3x
    assert 2.5 < ct0.decode / subm0.decode < 4.0
    # 4. absolute totals within +-25% of the paper
    for model, paper in zip(rows, PAPER_TABLE1):
        assert 0.75 < model.decode / paper.decode < 1.25


def test_bench_submission_decode(benchmark):
    result = benchmark.pedantic(
        lambda: measure_decode("ref", errors=16),
        rounds=3, iterations=1,
    )
    assert result.decode > 0


def test_bench_constant_time_decode(benchmark):
    result = benchmark.pedantic(
        lambda: measure_decode("const_bch", errors=16),
        rounds=3, iterations=1,
    )
    assert result.decode > 0
