"""The scan workload's process: set-up, then a closed loop of scan ops.

    python3 perfbench/scan_worker.py RESULT_JSON --seed S [--cycles C]
                                     [--trace] [--setup-only]

Set-up is the import plus the cold ``trivariate(1..9)`` builds that a
session pays once.  An op scans one (p, q) point over n = 1..9 through
``conjecture_scan`` and is checked field by field against the record.
The worker runs ``--cycles`` whole cycles of its job list (one by
default) and writes raw and normalised latencies (see
``workloads.RefClock``), failures and, with ``--trace``, its spans to
RESULT_JSON.
"""

import argparse
import json
import statistics
import time

import workloads as wl
from tracer import Tracer, namespace_snapshot, unchanged


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    clock = wl.RefClock()
    t0 = time.perf_counter()
    from eulerlab import distributions, symmetry
    tracer = None
    if args.trace:
        before = namespace_snapshot()
        tracer = Tracer()
        tracer.install()
    for n in wl.SCAN_NS:
        distributions.trivariate(n)
    setup = time.perf_counter() - t0
    clock.tick()
    out = {"setup": [clock.normalise([setup])[0], setup]}
    if not args.setup_only:
        out.update(_loop(args, symmetry, tracer))
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.dump()
        out["trace"]["restored"] = unchanged(before)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))


def _loop(args, symmetry, tracer) -> dict:
    jobs = wl.job_list("scan", args.seed)
    expected = wl.load_expected()
    clock = wl.RefClock()
    raw, keys, failures, fields_seen = [], [], [], []
    for cycle in range(args.cycles):
        for op, job in enumerate(jobs):
            if tracer is not None:
                tracer.op = op
            p, q = wl.scan_point(job)
            o0 = time.perf_counter()
            try:
                reports = [symmetry.conjecture_scan(n, p, q) for n in wl.SCAN_NS]
            except Exception as exc:  # a failed op is counted, not fatal
                failures.append(f"scan {job}: {exc!r}")
                fields = None
            else:
                raw.append(time.perf_counter() - o0)
                clock.tick()
                keys.append(wl.job_key(job))
                fields = [wl.scan_fields(r) for r in reports]
                error = wl.check_scan(job, fields, expected)
                if error:
                    failures.append(error)
            if not cycle:
                fields_seen.append(fields)
    latencies = clock.normalise(raw)
    by_job = {}
    for key, t in zip(keys, latencies):
        by_job.setdefault(key, []).append(t)
    return {"latencies": latencies, "raw_latencies": raw, "refs": clock.refs,
            "cycles": args.cycles, "attempted": len(jobs) * args.cycles,
            "failures": failures, "first_cycle": fields_seen,
            "job_median_s": {key: statistics.median(t)
                             for key, t in by_job.items()}}


if __name__ == "__main__":
    main()
