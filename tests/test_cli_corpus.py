"""Every request of the CLI byte corpus keeps its bytes and exit code.

The corpus is run twice in this process: in file order from cleared
caches, then in reverse order on the caches the first pass left, since
neither the cache state nor the order may change a byte.  The corpus is
the one record of the CLI's bytes, so a second test holds it to every
command and ``--format`` choice of the parser.  See
``tests/cli_corpus.py`` for the requests and how to record them.
"""

import argparse
import json

import cli_corpus
from eulerlab.cli import build_parser


def test_cli_requests_keep_their_recorded_bytes(monkeypatch, tmp_path):
    corpus = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
    assert [e["argv"] for e in corpus] == cli_corpus.requests()
    monkeypatch.chdir(tmp_path)
    cli_corpus.clear_caches()
    differ = []
    for order, entries in (("forward", corpus), ("reverse", corpus[::-1])):
        for want in entries:
            got = cli_corpus.run(want["argv"])
            changed = [k for k in ("code", "stdout", "stderr", "file")
                       if got[k] != want[k]]
            if changed:
                differ.append(f"{order} {' '.join(want['argv'])}: "
                              f"{', '.join(changed)} differ")
    assert not differ, "\n".join(differ)


# Every argv that CI ran through the console script and checked by hand
# before the corpus held its bytes, as CI spelled it.  A request counts
# as present when it parses to the same options as one of the corpus,
# so `verify --check all` is the corpus's `verify`.
_CI_ARGVS = (
    "verify --check all", "verify --check gf --max-n 13",
    "verify --check thm20 --max-n 13", "verify --check thT1",
    "verify --check thm01 --max-n 10", "verify --check counts --max-n 13",
    "verify --check eq1", "poly --family derangement --n 13",
    "poly --family trivariate --n 13 --format json",
    "poly --family derangement_refined --n 13 --format json",
    "poly --family des_exc --n 5 --format json",
    "scan --max-n 4 --p 3/2 --q 5/4 --format json",
    "table --max-n 13 --format csv",
    "decompose --family des_exc --n 5 --s 2 --format json",
    "det --n 5 --format text", "gamma --family derangement --n 6 --d 6",
    "det --n 14", "scan --max-n 14",
    f"export --family trivariate --n 13 --out {cli_corpus.OUT}",
    f"export --family a_part --n 13 --out {cli_corpus.OUT}",
)


def test_corpus_covers_every_command_format_and_former_ci_check():
    parser = build_parser()
    parsed = [vars(parser.parse_args(argv))
              for argv in cli_corpus.requests()]
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = [f"{name} --format {fmt}"
               for name, sub in commands.items()
               for action in sub._actions if action.dest == "format"
               for fmt in action.choices
               if not any(p["command"] == name and p["format"] == fmt
                          for p in parsed)]
    missing += [name for name in commands
                if not any(p["command"] == name for p in parsed)]
    missing += [argv for argv in _CI_ARGVS
                if vars(parser.parse_args(argv.split())) not in parsed]
    assert not missing, "no corpus request for: " + "; ".join(missing)
