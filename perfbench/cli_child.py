"""Traced stand-in for the ``endvertex`` console script.

    python3 perfbench/cli_child.py SPANS_JSON endvertex FILE --kind ... --json

Imports ``endvertex.cli`` (timing the import), installs the span
wrappers, then runs ``endvertex.cli.main`` on the remaining arguments
exactly as the console script would.  The spans and the import time are
written to SPANS_JSON when main returns or raises; an exception still
propagates, so exit status and stderr match an untraced run.
"""

import json
import sys
from time import perf_counter

from spans import Tracer


def run() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import endvertex.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return endvertex.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": [s[:4] for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(run())
