"""``compare`` verdicts on synthetic reports."""

import json

import pytest

from benchmarks.ledger import compare, spec
from benchmarks.ledger.cli import metric_row

DECLARED = spec.load()
FINGERPRINT = {
    "nproc": 2, "numpy": "2.4.6", "blas": "scipy-openblas 0.3", "reps": 3, "window_s": 4.0,
}


def report(values_by_metric, failed=0, fingerprint=FINGERPRINT, cycles=0.0, drop=()):
    """Every declared workload with the same rows; ``cycles`` fills the exact ones."""
    rows = {
        m.name: metric_row(m.unit, values_by_metric.get(m.name, [100.0, 100.0, 100.0]))
        for m in DECLARED.end_to_end
    }
    entry = {
        "attempted": 1000,
        "failed": failed,
        "end_to_end": rows,
        "per_layer": {name: {"unit": "cycles", "value": cycles} for name in compare.EXACT},
    }
    return {
        "fingerprint": fingerprint,
        "workloads": {name: entry for name in DECLARED.workloads if name not in drop},
    }


def row(values):
    return metric_row("x", values)


@pytest.mark.parametrize(
    ("a", "b", "better", "word"),
    [
        ([100, 101, 102], [103, 104, 105], "lower", "same"),       # +3% < 10%
        ([100, 101, 102], [120, 121, 122], "lower", "worse"),      # +20%
        ([100, 101, 102], [80, 81, 82], "lower", "better"),
        ([100, 101, 102], [80, 81, 82], "higher", "worse"),        # throughput fell
        ([100, 101, 102], [120, 121, 122], "higher", "better"),
        ([100, 120, 140], [105, 125, 145], "lower", "unresolved"),  # spread 33% > bound
        ([100, 120, 140], [60, 70, 80], "lower", "better"),        # every run beats every run
        ([100, 120, 140], [160, 180, 200], "lower", "worse"),      # every run loses to every run
    ],
)
def test_verdicts(a, b, better, word):
    assert compare.verdict(row(a), row(b), better, 0.10)[1] == word


def test_exact_metric_with_zero_bound():
    assert compare.verdict(row([5, 5, 5]), row([5, 5, 5]), "lower", 0.0)[1] == "same"
    assert compare.verdict(row([5, 5, 5]), row([6, 6, 6]), "lower", 0.0)[1] == "worse"


def test_compare_flags_a_regression_and_a_higher_fail_share():
    base = report({})
    lines, regressed = compare.compare(base, report({}), DECLARED)
    assert not regressed and all(line.endswith("same") for line in lines[1:])
    _, regressed = compare.compare(
        base, report({"ops_per_s": [50.0, 50.0, 50.0]}), DECLARED
    )
    assert regressed
    lines, regressed = compare.compare(base, report({}, failed=1), DECLARED)
    assert regressed and "fail_share rose" in lines[-1]


def test_exact_rows_allow_no_increase_at_all():
    base = report({}, cycles=9_984_256.0)
    lines, regressed = compare.compare(base, report({}, cycles=9_984_256.0), DECLARED)
    assert not regressed and sum("cosim.sim_cycles_ise" in line for line in lines) == 6
    _, regressed = compare.compare(base, report({}, cycles=9_984_257.0), DECLARED)
    assert regressed
    _, regressed = compare.compare(base, report({}, cycles=9_984_255.0), DECLARED)
    assert not regressed
    # layers a workload never enters read 0 on both sides: no row
    lines, _ = compare.compare(report({}), report({}), DECLARED)
    assert not any("cosim." in line for line in lines)


def test_a_missing_workload_is_a_regression_not_a_skipped_row():
    full = report({})
    for a, b, side in ((full, report({}, drop=("open-steady",)), "B"),
                       (report({}, drop=("open-steady",)), full, "A")):
        lines, regressed = compare.compare(a, b, DECLARED)
        assert regressed
        assert f"open-steady  missing from {side}" in lines


def test_main_refuses_reports_from_different_machines(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report({})))
    b.write_text(json.dumps(report({}, fingerprint={**FINGERPRINT, "nproc": 8})))
    assert compare.main(str(a), str(b)) == 2
    assert "nproc: 2 vs 8" in capsys.readouterr().out
    b.write_text(json.dumps(report({}, fingerprint={**FINGERPRINT, "window_s": 1.0})))
    assert compare.main(str(a), str(b)) == 2
    b.write_text(json.dumps(report({"op_p50_ms": [150.0, 150.0, 150.0]})))
    assert compare.main(str(a), str(b)) == 1
    assert compare.main(str(a), str(a)) == 0
