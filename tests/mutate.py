"""Run the mutation register: every mutant in ``tests/mutants.json`` must
make one of its listed tests fail.

A mutant is a one-line change to the code under ``src/``, or to a test
helper under ``tests/``; no other file may be mutated.  An entry gives
the file, the old line's text without its indentation, the new text,
and the test ids expected to fail; an equivalent mutant gives, in place
of the tests, the reason it changes no behaviour.  The script copies
``src/``, ``tests/``, ``demos/``, ``perfbench/`` and ``README.md`` side
by side to a temporary directory once, so a listed test may read the
demos, the README or perfbench as it does in the repository; those
copies are only read.  For each mutant it replaces the one line of the
copied file whose text is the old line, keeping its indentation, runs
only the listed tests of the copy against the copied package with
``python -m pytest -x -q -p no:cacheprovider``, one process at a time,
and puts the line back.  The mutant is killed when pytest reports a
failing test (exit code 1) and survives when the tests pass; any other
exit code, a test id that is not found say, is an error.  An old line
that matches no line of its file, or more than one, is an error too, so
a refactor updates or retires the mutant.  Equivalent mutants are
skipped, after the check that their old line is still there.  First of
all, every listed test must pass on the unchanged copy, or no kill
would mean anything.

Stdlib only; run it from any directory::

    python tests/mutate.py

It prints one line per mutant and exits 1 when a mutant survives or an
entry is in error, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTER = Path(__file__).with_name("mutants.json")
MUTABLE = ("src/", "tests/")


def mutate(text: str, old: str, new: str) -> str | None:
    """``text`` with its one line reading ``old``, indentation aside,
    replaced by ``new`` at the same indentation; None unless exactly one
    line matches."""
    lines = text.splitlines(keepends=True)
    hits = [k for k, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def run_tests(copy: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run in ``copy``, against the
    package in its ``src``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = json.loads(REGISTER.read_text(encoding="utf-8"))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", copy)
        listed = sorted({t for m in mutants for t in m.get("tests", ())})
        code = run_tests(copy, listed)
        if code:
            print(f"error: the listed tests exit {code} on the unchanged "
                  f"code")
            return 1
        for m in mutants:
            path = copy / m["file"]
            text = path.read_text(encoding="utf-8")
            mutated = mutate(text, m["old"], m["new"])
            label = f"{m['file']}: {m['old']} -> {m['new']}"
            if not m["file"].startswith(MUTABLE):
                verdict = "ERROR, only src/ and tests/ may be mutated"
            elif mutated is None:
                verdict = "ERROR, old line not found exactly once"
            elif "equivalent" in m:
                verdict = "equivalent, skipped"
            else:
                path.write_text(mutated, encoding="utf-8")
                code = run_tests(copy, m["tests"])
                path.write_text(text, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed"}.get(
                    code, f"ERROR, pytest exit {code}")
            failed += not verdict.startswith(("killed", "equivalent"))
            print(f"{verdict}: {label}")
    print(f"{len(mutants)} mutants, {failed} survived or in error")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
