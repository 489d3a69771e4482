"""Workload catalogues, seed-driven job lists and output checks.

A workload's job list is drawn once per seed from a finite catalogue and
then repeated in a fixed number of whole cycles (``cycles()``), so every
cycle does the same work and rates do not depend on where the clock
stopped.

CLI jobs are argument tuples for ``python3 -m eulerlab.cli``.  An export
job carries the placeholder ``OUT`` where the output path goes.  Scan
jobs are (p, q) points; one op scans n = 1..9 at that point.

``expected.json`` holds the outputs recorded at the baseline commit by
``record.py``: sha256 digests of ``poly`` stdout and of exported files,
and per-field digests of the scan reports.  ``verify`` jobs are checked
by structure instead: exit 0, ``result: PASS``, and detail lines that
cover exactly the n range requested.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("build", "scan", "verify")
OUT = "OUT"

# ----------------------------------------------------------------------
# build: poly/export of the enumeration families

FAMILIES = ("des_exc", "classic_eulerian", "derangement", "trivariate",
            "derangement_refined", "xi", "exc_slice")
VERBS = ("text", "json", "latex", "export")


def _family_args(family: str, n: int) -> list[tuple[str, ...]]:
    base = ("--family", family, "--n", str(n))
    if family == "xi":
        # one slice: the cost of xi(n, i) grows with i, so a seed-chosen i
        # would make the cycle's cost depend on the seed
        return [base + ("--i", "2")]
    if family == "exc_slice":
        return [base + ("--k", str(k)) for k in range(n)]
    return [base]


def _with_verb(args: tuple[str, ...], verb: str) -> tuple[str, ...]:
    if verb == "export":
        return ("export",) + args + ("--out", OUT)
    return ("poly",) + args + ("--format", verb)


_BUILD_SLOTS = [(f, 8) for f in FAMILIES] + [(f, 9) for f in FAMILIES] + [
    ("trivariate", 10)]


def build_jobs(rng: random.Random) -> list[tuple[str, ...]]:
    jobs = [_with_verb(rng.choice(_family_args(f, n)), rng.choice(VERBS))
            for f, n in _BUILD_SLOTS]
    rng.shuffle(jobs)
    return jobs


def build_catalogue() -> list[tuple[str, ...]]:
    return [_with_verb(args, verb) for f, n in _BUILD_SLOTS
            for args in _family_args(f, n) for verb in VERBS]


# ----------------------------------------------------------------------
# verify: every suite and --check all at the documented ranges

SUITES = ("macmahon", "thm01", "thm20", "eq1", "gf", "thT1", "fubini",
          "li-binomial", "counts")
DEFAULT_MAX_N = {"macmahon": 9, "thm01": 7, "thm20": 9, "eq1": 6, "gf": 7,
                 "thT1": 7, "fubini": 7, "li-binomial": 9, "counts": 7}

# suite -> [(detail label with {} for n, first n, last n the suite reaches)]
_DETAIL_RANGES = {
    "macmahon": [("macmahon n={}", 1, 10)],
    "thm01": [("thm01 n={}", 2, 8)],
    "thm20": [("thm20 n={}", 2, 9)],
    "eq1": [("eq1 n={}", 1, 9)],
    "thT1": [("thT1 det=recurrence n={}", 0, 6),
             ("thT1 reconstruct a_{}", 1, 7)],
    "fubini": [("fubini n={}", 1, 9)],
    "li-binomial": [("li-binomial n={}", 2, 10)],
    "counts": [("counts n={}", 1, 9)],
}


def _verify_job(suite: str, rng: random.Random) -> tuple[str, ...]:
    """The suite at its default range, spelled out or left implicit."""
    job = ("verify", "--check", suite)
    if suite != "all" and rng.random() < 0.5:
        job += ("--max-n", str(DEFAULT_MAX_N[suite]))
    return job


def verify_jobs(rng: random.Random) -> list[tuple[str, ...]]:
    jobs = [_verify_job(s, rng) for s in SUITES + ("all",)]
    rng.shuffle(jobs)
    return jobs


def verify_labels(suite: str, max_n: int | None) -> list[str]:
    """Detail-line labels a PASSing suite prints for the requested range."""
    top = DEFAULT_MAX_N[suite] if max_n is None else max_n
    if suite == "gf":
        order = min(top, 8)
        return [f"gf joint coefficients n<={order} r<={order}",
                "gf palindromic-part coefficients", "gf telescope identity"]
    return [label.format(n) for label, lo, cap in _DETAIL_RANGES[suite]
            for n in range(lo, min(top, cap) + 1)]


def check_verify(job: tuple[str, ...], stdout: str) -> str | None:
    """None when the report passes and covers exactly the requested range."""
    suite = job[job.index("--check") + 1]
    max_n = int(job[job.index("--max-n") + 1]) if "--max-n" in job else None
    suites = SUITES if suite == "all" else (suite,)
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("result: PASS"):
        return "no 'result: PASS' line"
    want = [label for s in suites for label in verify_labels(s, max_n)]
    got, verdicts = [], []
    for line in lines[:-1]:
        label, _, rest = line.partition(": ")
        if label.endswith(" note"):
            continue
        if not rest.startswith("PASS"):
            return f"line not passing: {line!r}"
        (verdicts if label in SUITES else got).append(label)
    if verdicts != list(suites):
        return f"suite verdicts {verdicts} != {list(suites)}"
    if got != want:
        return f"detail lines {got} != requested range {want}"
    return None


# ----------------------------------------------------------------------
# scan: conjecture_scan over n = 1..9 at in-zone rational points

SCAN_P = ("3/2", "2", "5/2", "3", "7/3", "11/10")
SCAN_Q = ("1", "5/4", "3/2", "2", "3", "7/2")
SCAN_NS = range(1, 10)


def scan_catalogue() -> list[tuple[str, str]]:
    return [(p, q) for p in SCAN_P for q in SCAN_Q]


def scan_jobs(rng: random.Random) -> list[tuple[str, str]]:
    jobs = scan_catalogue()
    rng.shuffle(jobs)
    return jobs


def scan_point(job: tuple[str, str]) -> tuple[Fraction, Fraction]:
    return Fraction(job[0]), Fraction(job[1])


def _joined_digest(values) -> str:
    return digest(";".join(str(v) for v in values).encode())


def scan_fields(report) -> dict:
    """A ScanReport reduced to comparable fields; gamma vectors as digests."""
    return {
        "gamma_a": _joined_digest(report.gamma_a),
        "gamma_b": _joined_digest(report.gamma_b),
        "gamma_a_nonneg": report.gamma_a_nonneg,
        "gamma_b_nonneg": report.gamma_b_nonneg,
        "alternatingly_increasing": report.alternatingly_increasing,
        "unimodal": report.unimodal,
        "mode_indices": list(report.mode_indices),
        "in_hypothesis": report.in_hypothesis,
    }


def check_scan(job: tuple[str, str], fields: list[dict],
               expected: dict) -> str | None:
    want = expected["scan"].get(job_key(job))
    if want is None:
        return f"no recorded reports for {job}"
    for n, got, rec in zip(SCAN_NS, fields, want):
        bad = [k for k in rec if got.get(k) != rec[k]]
        if bad:
            return f"scan {job} n={n}: fields {bad} differ from the record"
    return None


# ----------------------------------------------------------------------
# shared

JOB_LISTS = {"build": build_jobs, "scan": scan_jobs, "verify": verify_jobs}


def job_list(workload: str, seed: int) -> list[tuple[str, ...]]:
    return JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))


def job_key(job: tuple[str, ...]) -> str:
    return " ".join(job)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def cli_args(job: tuple[str, ...], out_path: Path) -> list[str]:
    """The job's arguments with the export target filled in."""
    return [out_path.as_posix() if a == OUT else a for a in job]


def recorded_output(job: tuple[str, ...], stdout: bytes,
                    out_path: Path) -> bytes:
    """What expected.json holds a digest of: the exported file, or stdout."""
    return out_path.read_bytes() if job[0] == "export" else stdout


def check_cli(job: tuple[str, ...], stdout: bytes, out_path: Path,
              expected: dict) -> str | None:
    """None when a CLI job's output matches the record; else the reason."""
    if job[0] == "verify":
        return check_verify(job, stdout.decode("utf-8", "replace"))
    if job[0] == "export" and stdout != f"wrote {out_path}\n".encode():
        return f"unexpected stdout {stdout[:80]!r}"
    want = expected["cli"].get(job_key(job))
    if want is None:
        return "no recorded output"
    if digest(recorded_output(job, stdout, out_path)) != want:
        return "output differs from the record"
    return None


# Wall seconds of one cycle at the baseline commit, on a machine that runs
# the reference loop in REF_S, counting reference samples and checks.
CYCLE_S = {"build": 14.5, "scan": 1.8, "verify": 7.5}


def cycles(workload: str, seconds: float) -> int:
    """The cycle count a run of about ``seconds`` makes.

    It depends on the catalogue and ``seconds`` only, not on how fast the
    machine runs that minute, so each percentile is the same order
    statistic in every run.
    """
    return max(1, round(seconds / CYCLE_S[workload]))


# ----------------------------------------------------------------------
# machine-speed reference

REF_LOOPS = 200_000
REF_S = 0.0175   # reference-loop time that normalised seconds assume


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class RefClock:
    """Reference-loop samples taken between timed ops.

    The shared machine's speed drifts by tens of percent within minutes.
    ``tick()`` runs after every op, so op i lies between samples i and
    i + 1.  ``normalise()`` rescales each op's wall time to a machine
    whose reference loop takes ``REF_S``, by the median of the samples
    within ``WINDOW`` of the op (a few seconds), which follows the drift
    without taking on one sample's noise.
    """

    WINDOW = 4

    def __init__(self):
        self.refs = [reference_seconds()]

    def tick(self) -> None:
        self.refs.append(reference_seconds())

    def normalise(self, raw: list[float]) -> list[float]:
        w = self.WINDOW
        return [t * REF_S / statistics.median(self.refs[max(i - w + 1, 0):
                                                        i + w + 1])
                for i, t in enumerate(raw)]
