"""The CLI byte corpus: requests, their in-process runner and its recorder.

``tests/cli_corpus.json`` holds one entry per request: its argv, its exit
code, and the sha256 of its stdout, of its stderr and of the file it
wrote (``null`` when it wrote none).  ``tests/test_cli_corpus.py`` runs
every request again and names each one whose bytes or exit code differ.

Record the corpus only at a commit whose output is known to be right, and
only when a change to the output bytes is intended; say which requests
changed and why.  The recorder prints them, against the file it replaces::

    PYTHONPATH=src python tests/cli_corpus.py

Every request parses, so the bytes hold no argparse message, whose
wording and line wrapping vary with the Python version and the terminal.
``export`` writes to the fixed relative name ``out.json`` in a scratch
working directory, so no path enters a digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")
OUT = "out.json"

# (first, top) --max-n of each suite, each run from first - 1 to top + 1.
# They are spelled out rather than read from the ranges in checks.CHECKS,
# so that a change of range shows as changed exit codes, not as changed
# requests.
_SUITE_SPAN = {"macmahon": (1, 13), "thm01": (2, 9), "thm20": (2, 13),
               "eq1": (1, 13), "gf": (0, 13), "thT1": (1, 7),
               "fubini": (1, 13), "li-binomial": (2, 13), "counts": (1, 13)}
_FORMATS = ("text", "json", "latex")
# the specializations of each family split by decompose and gamma
_SPECIALIZED = {
    "des_exc": ((), ("--s", "3/2"), ("--s=-1/3",)),
    "trivariate": ((), ("--p", "3/2", "--q", "5/4"),
                   ("--p=-5/4", "--q", "7/3"), ("--q=-2/5",)),
    "classic_eulerian": ((),),
    "derangement": ((),),
}


def requests() -> list[list[str]]:
    """Every argv of the corpus, in file order."""
    out = [["verify"]]
    for name, (first, top) in _SUITE_SPAN.items():
        out += [["verify", "--check", name, "--max-n", str(n)]
                for n in range(first - 1, top + 2)]
    for family in ("des_exc", "classic_eulerian", "derangement",
                   "trivariate", "derangement_refined"):
        out += [["poly", "--family", family, "--n", str(n), "--format", fmt]
                for n in range(15) for fmt in _FORMATS]
    out += [["poly", "--family", "xi", "--n", "7", "--i", str(i)]
            for i in range(5)]
    # every slice of xi at every n, with the refusals one past each end
    xi_slices = [(n, i) for n in range(15) for i in range(n // 2 + 2)]
    out += [["poly", "--family", "xi", "--n", str(n), "--i", str(i),
             "--format", _FORMATS[j % 3]]
            for j, (n, i) in enumerate(xi_slices)]
    out += [["poly", "--family", "exc_slice", "--n", "7", "--k", str(k)]
            for k in range(-1, 8)]
    out += [["det", "--n", str(n), "--format", "all"] for n in range(-1, 15)]
    out += [["det", "--n", "6", "--format", fmt] for fmt in _FORMATS]
    for command in ("decompose", "gamma"):
        for family, specs in _SPECIALIZED.items():
            for spec in specs:
                for n in range(1, 10):
                    base = [command, "--family", family, "--n", str(n), *spec,
                            "--format", _FORMATS[n % 3]]
                    out += [base, base + ["--d", str(n)]]
        out += [[command, "--family", "classic_eulerian", "--n", "4",
                 "--s", "2"],
                [command, "--family", "des_exc", "--n", "5", "--d", "2"],
                [command, "--family", "des_exc", "--n", "5", "--d=-1"],
                [command, "--family", "des_exc", "--n", "14"]]
    out += [["scan"], ["scan", "--max-n", "13", "--p", "2", "--q", "1"],
            ["scan", "--max-n", "9", "--p", "3/2", "--q", "5/4",
             "--format", "json"],
            ["scan", "--max-n", "6", "--p", "1", "--q", "1"],
            ["scan", "--max-n", "6", "--p=-3/7", "--q=-2", "--force"],
            ["scan", "--max-n", "0"], ["scan", "--max-n", "14"]]
    out += [["table", "--max-n", str(n), "--format", fmt]
            for n in (0, 7, 13, 14) for fmt in ("text", "csv", "json")]
    index = {"xi": ("--i", "2"), "exc_slice": ("--k", "2")}
    for n in ("4", "9"):
        for family in ("des_exc", "classic_eulerian", "derangement",
                       "trivariate", "derangement_refined", "xi",
                       "exc_slice", "det", "a_part", "reconstruct_a"):
            out.append(["export", "--family", family, "--n", n,
                        *index.get(family, ()), "--out", OUT])
    # the requests that CI checked by hand before the corpus held them:
    # each suite at its default range, the exports at the top, and one
    # run of each lazily loaded command
    out += [["verify", "--check", name] for name in _SUITE_SPAN]
    out += [["export", "--family", family, "--n", "13", "--out", OUT]
            for family in ("trivariate", "a_part")]
    out += [["scan", "--max-n", "4", "--p", "3/2", "--q", "5/4",
             "--format", "json"],
            ["decompose", "--family", "des_exc", "--n", "5", "--s", "2",
             "--format", "json"],
            ["det", "--n", "5", "--format", "text"],
            ["gamma", "--family", "derangement", "--n", "6", "--d", "6"]]
    # an ambient degree above n is refused before any build
    out += [[command, "--family", "des_exc", "--n", "5", "--d", "6"]
            for command in ("decompose", "gamma")]
    # values whose output could pass Python's int-to-str digit limit are
    # refused before any work, with nothing on stdout
    for digits in (60, 4000):
        x = ("1234567890" * 400)[:digits]
        values = ["--p", f"{x}/3", "--q", f"{x}/7"]
        out += [[command, "--family", "trivariate", "--n", "13", *values]
                for command in ("decompose", "gamma")]
        out.append(["scan", "--max-n", "13", *values])
    # a decimal with 4300 digits on each side of the point parses, and the
    # same bound refuses it: its numerator is too long to print
    x = "1234567890" * 430
    out += [["scan", "--max-n", "3", "--p", f"{x}.{x}"],
            ["decompose", "--family", "trivariate", "--n", "3",
             "--p", f"{x}.{x}"]]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def clear_caches() -> None:
    """Empty every cache of the loaded eulerlab modules."""
    for name, module in list(sys.modules.items()):
        if name == "eulerlab" or name.startswith("eulerlab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run(argv: list[str]) -> dict:
    """One request in process, in the working directory, as an entry."""
    from eulerlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    written = None
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            written = _sha(fh.read())
        os.remove(OUT)
    return {"argv": list(argv), "code": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "file": written}


def changed_fields(old: dict, new: dict) -> list[str]:
    """The recorded fields in which two entries of one request differ."""
    return [k for k in ("code", "stdout", "stderr", "file")
            if old[k] != new[k]]


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """One line per request that differs between two entry lists, matched
    by argv: each changed request with the fields that changed, in
    ``new``'s order, then each added one, then each removed one."""
    before = {tuple(e["argv"]): e for e in old}
    after = {tuple(e["argv"]): e for e in new}
    lines = []
    for argv, entry in after.items():
        fields = changed_fields(before[argv], entry) if argv in before else []
        if fields:
            lines.append(f"changed {', '.join(fields)}: {' '.join(argv)}")
    lines += [f"added: {' '.join(argv)}"
              for argv in after if argv not in before]
    lines += [f"removed: {' '.join(argv)}"
              for argv in before if argv not in after]
    return lines


def record() -> None:
    """Run every request, write the corpus and print what it changed."""
    old = (json.loads(CORPUS.read_text(encoding="utf-8"))
           if CORPUS.exists() else [])
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            clear_caches()
            entries = [run(argv) for argv in requests()]
        finally:
            os.chdir(cwd)
    CORPUS.write_text("[\n" + ",\n".join(
        json.dumps(e, separators=(",", ":")) for e in entries) + "\n]\n",
        encoding="utf-8")
    for line in changes(old, entries):
        print(line)
    print(f"wrote {len(entries)} requests to {CORPUS.name}")


if __name__ == "__main__":
    record()
