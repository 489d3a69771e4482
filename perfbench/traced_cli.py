"""Run one eulerlab CLI job with the tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID -- <eulerlab arguments>

Behaves like ``python3 -m eulerlab.cli <arguments>`` (same stdout, same
exit code) and writes the job's spans and counters to SPANS_JSON.  The
whole ``main()`` call is one ``cli`` span, so ``cli.self_s`` is parsing,
dispatch and whatever rendering no traced function covers.
"""

import json
import sys

from tracer import Tracer, namespace_snapshot, unchanged


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON OP_ID -- ARGS...")
    import eulerlab.cli as cli
    before = namespace_snapshot()
    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        code = tracer.wrap("cli", cli.main)(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    dump = tracer.dump()
    dump["restored"] = unchanged(before)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
