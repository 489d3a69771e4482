"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import (Tracer, aggregate, layer_metrics, namespace_snapshot,
                    unchanged)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def runner(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "TMP", tmp_path)
    monkeypatch.setitem(run.ENV, "PYTHONPATH", str(ROOT / "src"))
    sp = run.Spawner(120)
    yield sp
    sp.close()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert wl.job_list(workload, 7) == wl.job_list(workload, 7)
    assert wl.job_list(workload, 7) != wl.job_list(workload, 8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_cycle_count_follows_seconds_only(workload):
    assert wl.cycles(workload, 0.1) == 1
    assert wl.cycles(workload, 30) == round(30 / wl.CYCLE_S[workload])
    assert wl.cycles(workload, 60) >= 2 * wl.cycles(workload, 30) - 1


def test_job_past_the_deadline_stops_the_run(tmp_path):
    sp = run.Spawner(0.5)
    try:
        with pytest.raises(run.RunError, match="deadline"):
            sp.run([run.PYTHON, "-c", "import time; time.sleep(30)"],
                   tmp_path / "sleep.out")
    finally:
        sp.close()


def test_job_lists_come_from_the_catalogue():
    recorded = wl.load_expected()
    for seed in range(5):
        for job in wl.job_list("build", seed):
            assert wl.job_key(job) in recorded["cli"]
        for job in wl.job_list("scan", seed):
            assert wl.job_key(job) in recorded["scan"]


SMALLEST = [
    ("poly", "--family", "derangement", "--n", "8", "--format", "text"),
    ("poly", "--family", "xi", "--n", "8", "--i", "2", "--format", "latex"),
    ("export", "--family", "des_exc", "--n", "8", "--out", wl.OUT),
    ("verify", "--check", "eq1"),
    ("verify", "--check", "thT1", "--max-n", "7"),
]


@pytest.mark.parametrize("job", SMALLEST, ids=wl.job_key)
def test_smallest_job_passes_its_check(runner, job):
    expected = wl.load_expected()
    _, _, produced, error = run.cli_job(runner, job, 0, expected)
    assert error is None and produced


def test_output_checks_reject_wrong_output(runner):
    expected = wl.load_expected()
    job = ("poly", "--family", "derangement", "--n", "8", "--format", "text")
    assert wl.check_cli(job, b"0\n", Path("unused"), expected)
    stdout = "eq1 n=1: PASS\neq1: PASS\nresult: PASS\n"
    assert "requested range" in wl.check_verify(("verify", "--check", "eq1"),
                                                stdout)


def test_smallest_scan_op_passes_its_check():
    from eulerlab.symmetry import conjecture_scan
    expected = wl.load_expected()
    job = ("2", "1")
    fields = [wl.scan_fields(conjecture_scan(n, 2, 1)) for n in wl.SCAN_NS]
    assert wl.check_scan(job, fields, expected) is None
    fields[3]["unimodal"] = not fields[3]["unimodal"]
    assert wl.check_scan(job, fields, expected)


def test_tracer_restores_namespaces_and_records_layers():
    import eulerlab.checks as checks
    import eulerlab.cli  # noqa: F401  (binds more names to patch)
    from eulerlab import distributions, symmetry
    distributions.eulerian_st.cache_clear()
    before = namespace_snapshot()
    original = checks.eulerian_st
    tracer = Tracer()
    tracer.install()
    try:
        assert checks.eulerian_st is not original
        assert symmetry.trivariate is distributions.trivariate
        checks.run_checks("counts", max_n=4)
        symmetry.conjecture_scan(4, 2, 1)
    finally:
        tracer.uninstall()
    assert unchanged(before)
    values = layer_metrics(aggregate([tracer.dump()]), 0.0, 1.0)
    assert values["distributions.build.calls"] >= 4
    assert values["checks.counts.busy_s"] > 0
    assert values["symmetry.conjecture_scan.calls"] == 1
    assert values["mpoly.mul.calls"] > 0
