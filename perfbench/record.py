"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py

Run from the root of a checkout, and only at a commit whose outputs are
known good: every later run is compared byte for byte with what this
writes.  CLI jobs are recorded through the same process spawn the
benchmark uses; scan reports are computed in process.
"""

import json
import sys

import run
import workloads as wl


def main() -> None:
    run.TMP.mkdir(exist_ok=True)
    sp = run.Spawner(run.time.perf_counter() + 3600)
    cli = {}
    try:
        for op, job in enumerate(wl.build_catalogue()):
            out_path = run.TMP / f"export-{op}.json"
            stdout_path = run.TMP / "record.out"
            _, code, _ = sp.run([run.PYTHON, "-m", "eulerlab.cli",
                                 *wl.cli_args(job, out_path)], stdout_path)
            if code != 0:
                raise SystemExit(f"{wl.job_key(job)} exited {code}")
            cli[wl.job_key(job)] = wl.digest(wl.recorded_output(
                job, stdout_path.read_bytes(), out_path))
            print(f"recorded {wl.job_key(job)}", file=sys.stderr)
    finally:
        sp.close()
        run.shutil.rmtree(run.TMP, ignore_errors=True)
    sys.path.insert(0, str(run.SRC))
    from eulerlab.symmetry import conjecture_scan
    scan = {}
    for job in wl.scan_catalogue():
        p, q = wl.scan_point(job)
        scan[wl.job_key(job)] = [wl.scan_fields(conjecture_scan(n, p, q))
                                 for n in wl.SCAN_NS]
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "scan": scan}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
