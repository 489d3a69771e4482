"""Every ``BENCH_*.json`` at the repository root can be read back.

Each file records benchmark runs of one change against its parent: see
ROADMAP item 22.  A file must name the commit it measured and the Python
version it ran on, and every metric it reports, in its summaries and in
the raw result lines of perfbench's runs alike, must carry its unit.
Later changes add a file; none rewrites an earlier one.  A record that
claims a gain names, in its ``claimed`` dict, a workload and an
end-to-end metric that ``BENCHMARK.json`` declares.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _metric_tables(node):
    """Every dict held under a ``metrics`` key, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "metrics" and isinstance(value, dict):
                yield value
            yield from _metric_tables(value)
    elif isinstance(node, list):
        for value in node:
            yield from _metric_tables(value)


def test_bench_records_name_commit_python_and_units():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]), path.name
        assert path.stem.endswith(record["commit"][:7]), path.name
        assert re.fullmatch(r"\d+\.\d+\.\d+", record["python"]), path.name
        tables = list(_metric_tables(record))
        assert tables, f"{path.name} reports no metric"
        for table in tables:
            for name, metric in table.items():
                unit = metric.get("unit") if isinstance(metric, dict) else None
                assert isinstance(unit, str) and unit, (path.name, name)


def test_a_claim_names_a_declared_workload_and_end_to_end_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    claims = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        claimed = json.loads(path.read_text(encoding="utf-8"))["claimed"]
        if isinstance(claimed, dict):
            claims += 1
            assert claimed["workload"] in workloads, path.name
            assert claimed["metric"] in metrics, path.name
    assert claims, "no BENCH_*.json claims a gain"
