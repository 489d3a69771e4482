"""Every request of the CLI byte corpus keeps its bytes and exit code.

The corpus is run twice in this process: in file order from cleared
caches, then in reverse order on the caches the first pass left, since
neither the cache state nor the order may change a byte.  See
``tests/cli_corpus.py`` for the requests and how to record them.
"""

import json

import cli_corpus


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
