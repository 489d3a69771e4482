"""The mutation register stays runnable.

``python tests/mutate.py`` takes about a minute, so it runs as a job of
its own.  This test checks in well under a second what a refactor can
break in the register without that job: each entry's file may be
mutated, its old line is still there exactly once, and it either names
tests that its test files define or gives the reason it is equivalent.
"""

import json
import re

from mutate import MUTABLE, REGISTER, ROOT, mutate


def test_every_mutant_applies_once_and_names_defined_tests():
    stranded = []
    for m in json.loads(REGISTER.read_text(encoding="utf-8")):
        label = f"{m['file']}: {m['old']}"
        path = ROOT / m["file"]
        if not m["file"].startswith(MUTABLE) or not path.is_file():
            stranded.append(f"{label}: no file under src/ or tests/")
            continue
        text = path.read_text(encoding="utf-8")
        if mutate(text, m["old"], m["new"]) is None:
            stranded.append(f"{label}: old line not found exactly once")
        if "equivalent" in m:
            if not m["equivalent"].strip():
                stranded.append(f"{label}: equivalent with no reason")
            continue
        if not m.get("tests"):
            stranded.append(f"{label}: neither tests nor a reason")
        for test in m.get("tests", ()):
            file, _, name = test.partition("::")
            source = ROOT / file
            defined = source.is_file() and re.search(
                rf"^\s*def {re.escape(name.split('[')[0])}\(",
                source.read_text(encoding="utf-8"), re.MULTILINE)
            if not defined:
                stranded.append(f"{label}: {test} is not defined")
    assert not stranded, "\n".join(stranded)
