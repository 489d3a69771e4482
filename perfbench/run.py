"""eulerlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is used from ``src/`` as
it stands, driven from outside: CLI workloads spawn one
``python3 -m eulerlab.cli`` process per job, the scan workload runs a
library loop in one worker process.  It is a closed loop with a single
client and no threads.  The job list comes from ``--seed`` and is repeated
in whole cycles, as many as take about ``--seconds`` at the baseline
speed (``workloads.cycles``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is followed by one traced cycle and the last
line carries the per-layer metrics instead.  The line before it holds
the provenance and sample counts.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import workloads as wl
from tracer import LAYER_METRICS, aggregate, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

CLI_SETUP_SPAWNS = 21      # fresh interpreters timed for a CLI setup_s
SCAN_SETUP_SPAWNS = 4      # extra set-up-only scan workers
RUN_MARGIN_S = 140.0       # run deadline: --seconds plus this margin for
                           # set-up, a slow machine and the traced cycle

PYTHON = sys.executable
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
ENV["PYTHONPATH"] = str(SRC)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mb", "MB"))


class RunError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# ----------------------------------------------------------------------
# processes

class Spawner:
    """The small helper process (spawner.py) that runs every job."""

    def __init__(self, budget: float):
        self.budget = budget
        self.deadline = time.perf_counter() + budget
        self.proc = subprocess.Popen(
            [PYTHON, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stdout_path: Path):
        """Run argv to exit; return (seconds, exit code, peak RSS in MB)."""
        req = {"argv": argv, "stdout": str(stdout_path),
               "stderr": str(stdout_path.with_suffix(".err")),
               "timeout": self.deadline - time.perf_counter()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RunError("the spawner process died")
        out = json.loads(reply)
        if out["killed"]:
            raise RunError(f"the run reached its deadline, {self.budget:.0f} s "
                           f"(--seconds plus {RUN_MARGIN_S:.0f} s) after it "
                           f"started; {argv[1:]} was stopped")
        return out["seconds"], out["code"], out["rss_mb"]


def _stderr_tail(stdout_path: Path) -> str:
    text = stdout_path.with_suffix(".err").read_text("utf-8", "replace")
    return text.strip().splitlines()[-1] if text.strip() else ""


# ----------------------------------------------------------------------
# statistics

def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank (a measured sample)."""
    ordered = sorted(values)
    return ordered[max(ceil(pct / 100 * len(ordered)), 1) - 1]


def tail_report(values: list[float]) -> dict:
    """Sample count and the highest percentile with 10 samples beyond it."""
    n = len(values)
    for pct in (99.9, 99, 90, 50):
        if n - ceil(pct / 100 * n) >= 10:
            return {"samples": n, "tail_pct": pct,
                    "tail_s": nearest_rank(values, pct)}
    return {"samples": n, "tail_pct": None, "tail_s": None}


# ----------------------------------------------------------------------
# CLI workloads

def cli_setup(sp: Spawner) -> tuple[float, float]:
    """Median spawn-to-exit time of ``import eulerlab.cli`` + parser build.

    Returns (normalised, raw) medians.
    """
    argv = [PYTHON, "-c", "import eulerlab.cli as c; c.build_parser()"]
    sp.run(argv, TMP / "setup.out")        # warms the caches, not counted
    clock = wl.RefClock()
    raw = []
    for _ in range(CLI_SETUP_SPAWNS):
        seconds, code, _ = sp.run(argv, TMP / "setup.out")
        clock.tick()
        if code != 0:
            raise RunError(f"import failed: {_stderr_tail(TMP / 'setup.out')}")
        raw.append(seconds)
    return (statistics.median(clock.normalise(raw)),
            statistics.median(raw))


def cli_job(sp: Spawner, job, op: int, expected: dict, spans=None):
    """Run one job; return (seconds, peak MB, output digest, error)."""
    out_path = TMP / f"export-{op}.json"
    args = wl.cli_args(job, out_path)
    if spans is None:
        argv = [PYTHON, "-m", "eulerlab.cli", *args]
    else:
        argv = [PYTHON, str(HERE / "traced_cli.py"), str(spans), str(op),
                "--", *args]
    stdout_path = TMP / f"job-{op}.out"
    seconds, code, rss = sp.run(argv, stdout_path)
    stdout = stdout_path.read_bytes()
    if code != 0:
        return seconds, rss, None, (f"{wl.job_key(job)}: exit {code} "
                                    f"{_stderr_tail(stdout_path)}")
    error = wl.check_cli(job, stdout, out_path, expected)
    produced = stdout + (out_path.read_bytes() if job[0] == "export" else b"")
    return seconds, rss, wl.digest(produced), (
        f"{wl.job_key(job)}: {error}" if error else None)


def cli_workload(sp: Spawner, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    jobs = wl.job_list(name, seed)
    expected = wl.load_expected()
    res = {}
    if not trace:
        res["setup_s"], res["raw_setup_s"] = cli_setup(sp)
    clock = wl.RefClock()
    raw, rss, failures, first = [], [], [], []
    cycles = wl.cycles(name, seconds)
    for cycle in range(cycles):
        for op, job in enumerate(jobs):
            t, mb, produced, error = cli_job(sp, job, op, expected)
            clock.tick()
            raw.append(t)
            rss.append(mb)
            if error:
                failures.append(error)
            if not cycle:
                first.append(produced)
    latencies = clock.normalise(raw)
    res.update(latencies=latencies, raw_latencies=raw, refs=clock.refs,
               peak_rss_mb=max(rss), cycles=cycles,
               attempted=len(jobs) * cycles, failures=failures)
    res["job_median_s"] = {wl.job_key(job): statistics.median(
        latencies[op::len(jobs)]) for op, job in enumerate(jobs)}
    if trace:
        dumps, traced, traced_clock = [], [], wl.RefClock()
        for op, job in enumerate(jobs):
            spans = TMP / f"spans-{op}.json"
            t, _, produced, error = cli_job(sp, job, op, expected, spans)
            traced_clock.tick()
            traced.append(t)
            if error or produced != first[op]:
                failures.append(error or f"{wl.job_key(job)}: traced output "
                                         f"differs from untraced output")
            if spans.exists():
                dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        res.update(traced_raw=traced, traced=traced_clock.normalise(traced),
                   dumps=dumps, attempted=res["attempted"] + len(jobs))
    return res


# ----------------------------------------------------------------------
# scan workload

def _worker(sp: Spawner, args: list[str]) -> tuple[dict, float]:
    result = TMP / "scan-result.json"
    result.unlink(missing_ok=True)
    argv = [PYTHON, str(HERE / "scan_worker.py"), str(result), *args]
    _, code, rss = sp.run(argv, TMP / "scan.out")
    if code != 0:
        raise RunError(f"scan worker failed: {_stderr_tail(TMP / 'scan.out')}")
    return json.loads(result.read_text(encoding="utf-8")), rss


def scan_workload(sp: Spawner, name: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    setups = []
    if not trace:
        _worker(sp, ["--setup-only"])          # warm-up, not counted
        setups = [_worker(sp, ["--setup-only"])[0]["setup"]
                  for _ in range(SCAN_SETUP_SPAWNS)]
    out, rss = _worker(sp, ["--seed", str(seed),
                            "--cycles", str(wl.cycles(name, seconds))])
    setups.append(out["setup"])
    res = {"setup_s": statistics.median(s for s, _ in setups),
           "raw_setup_s": statistics.median(r for _, r in setups),
           "latencies": out["latencies"], "raw_latencies": out["raw_latencies"],
           "refs": out["refs"], "peak_rss_mb": rss, "cycles": out["cycles"],
           "attempted": out["attempted"], "failures": out["failures"],
           "job_median_s": out["job_median_s"]}
    if trace:
        traced, _ = _worker(sp, ["--seed", str(seed), "--trace"])
        res["failures"] += traced["failures"]
        if traced["first_cycle"] != out["first_cycle"]:
            res["failures"].append("traced scan reports differ from untraced")
        res.update(traced_raw=traced["raw_latencies"],
                   traced=traced["latencies"], dumps=[traced["trace"]],
                   attempted=res["attempted"] + traced["attempted"])
    return res


RUNNERS = {"build": cli_workload, "verify": cli_workload,
           "scan": scan_workload}


# ----------------------------------------------------------------------
# report

def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = sorted((SRC / "eulerlab").glob("*.py"))
    return {
        "git_sha": sha,
        "src_sha256": wl.digest(b"".join(p.name.encode() + p.read_bytes()
                                         for p in src)),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "EULERLAB_THREADS": "unset",
    }


def end_to_end(res: dict, key: str = "") -> dict:
    """The end-to-end metrics from normalised times, or raw with key="raw_"."""
    latencies = res[key + "latencies"]
    if not latencies:
        raise RunError("no op completed")
    ok = max(res["attempted"] - len(res["failures"]), 0)
    return {
        "setup_s": res[key + "setup_s"],
        "ops_per_s": ok / sum(latencies),
        "op_p50_s": nearest_rank(latencies, 50),
        "op_p90_s": nearest_rank(latencies, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> tuple[dict, dict]:
    """Per-layer metric values, and each layer's share of the traced cycle.

    Both cycles are compared in normalised time, and span times are scaled
    by the traced cycle's normalised-to-raw ratio, so the layer times read
    in the same seconds as the end-to-end metrics.
    """
    if not all(d["restored"] for d in res["dumps"]):
        res["failures"].append("tracer left a module namespace changed")
    agg = aggregate(res["dumps"])
    raw, traced = sum(res["traced_raw"]), sum(res["traced"])
    share = {name: busy / raw for name, busy in sorted(agg["op_busy"].items())}
    untraced = sum(res["latencies"]) / res["cycles"]
    return layer_metrics(agg, traced / untraced - 1, traced / raw), share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    try:
        if "EULERLAB_THREADS" in os.environ:
            raise RunError("EULERLAB_THREADS is set; the benchmark measures "
                           "the single-threaded program, unset it")
        if not (SRC / "eulerlab" / "cli.py").is_file():
            raise RunError(f"no eulerlab sources under {SRC}; run from the "
                           f"root of an eulerlab checkout")
        TMP.mkdir(exist_ok=True)
        sp = Spawner(args.seconds + RUN_MARGIN_S)
        try:
            res = RUNNERS[args.workload](sp, args.workload, args.seed,
                                         args.seconds, bool(args.trace))
            if args.trace:
                values, share = per_layer(res)
            else:
                values, raw = end_to_end(res), end_to_end(res, "raw_")
        finally:
            sp.close()
            shutil.rmtree(TMP, ignore_errors=True)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in res["failures"][:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed), "cycles": res["cycles"],
              "ops": tail_report(res["latencies"]),
              "reference_s": statistics.median(res["refs"]),
              "job_median_s": res["job_median_s"],
              "run_wall_s": time.perf_counter() - start}
    if args.trace:
        detail.update(traced_cycle_s=sum(res["traced"]),
                      raw_traced_cycle_s=sum(res["traced_raw"]),
                      busy_share_of_traced_cycle=share)
    else:
        detail["raw"] = raw
    print(json.dumps(detail))
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    failed = min(len(res["failures"]), res["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
