"""``BENCHMARK.json`` obeys its contract and agrees with the code and README."""

import json
import re

from benchmarks.ledger import spec
from benchmarks.ledger.workloads import WORKLOADS

RAW = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_limits():
    assert set(RAW) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert RAW["paths"] == ["benchmarks/ledger"]
    assert all(part.startswith(("python3", "benchmarks/ledger")) for part in RAW["command"])
    assert isinstance(RAW["run_seconds"], int) and 1 <= RAW["run_seconds"] <= 60
    assert 2 <= len(RAW["workloads"]) <= 8
    assert 1 <= len(RAW["end_to_end"]) <= 16
    assert 1 <= len(RAW["per_layer"]) <= 128
    assert len((spec.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_bounds():
    names = []
    for w in RAW["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in RAW["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in RAW["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in RAW["end_to_end"] + RAW["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in RAW["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in RAW["end_to_end"])


def test_declaration_matches_the_workload_table_and_the_readme():
    declared = spec.load()
    assert list(declared.workloads) == list(WORKLOADS)
    readme = (spec.ROOT / "benchmarks" / "ledger" / "README.md").read_text()
    for name in declared.workloads:
        assert f"`{name}`" in readme
    for metric in (*declared.end_to_end, *declared.per_layer):
        # cosim.<profile>.<set>.* rows are documented as one pattern
        if metric.name.startswith("cosim.") and metric.name.count(".") == 3:
            continue
        assert f"`{metric.name}`" in readme, metric.name
