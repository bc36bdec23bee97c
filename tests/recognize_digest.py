"""Print SHA-256 digests of `endvertex recognize` outputs over a fixed corpus.

Usage, from the root of a checkout:

    python3 tests/recognize_digest.py

It imports `endvertex` from that checkout's `src/`, so running it on two
trees compares their `recognize` commands.  The name has no `test_`
prefix: pytest does not collect it.

Corpus: `dispatch_digest.py`'s 600 seeded graphs (n <= 10, six random
families), then the edge cases: the empty graph, one vertex, a
disconnected graph, the chordless cycle C6, a file with vertex names,
the claw, the net, the star K1,6, two 6-cliques sharing a vertex and a
20-vertex window.  Each graph is written to a file and run through
`endvertex recognize` in process, once as text and once with --json.

Printed, one per line: the number of runs; `text` and `json`, SHA-256
over (case, exit status, stdout, stderr) of every corpus graph; then one
digest per edge case over both of its runs.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fixtures as fx  # noqa: E402  (the script's own directory is on sys.path)
from dispatch_digest import corpus  # noqa: E402
from endvertex import Graph  # noqa: E402
from endvertex.cli import graph_to_text, main  # noqa: E402

NAMED = """\
# names 1 2 3 4 v 6 7
7 10
1 2
1 3
1 4
2 3
2 4
3 4
v 3
v 4
6 1
7 2
"""


def edge_cases():
    yield "empty", "0 0\n"
    yield "one vertex", "1 0\n"
    yield "disconnected", "4 2\n0 1\n2 3\n"
    yield "C6", graph_to_text(fx.cycle(6))
    yield "names", NAMED
    yield "named C5", "# names a b c d e\n5 5\na b\nb c\nc d\nd e\ne a\n"
    yield "claw", graph_to_text(fx.claw())
    yield "net", graph_to_text(fx.net())
    yield "star 6", graph_to_text(fx.star(6))
    # Built here, not by `fixtures.two_cliques`, so that older trees run it too.
    yield "two 6-cliques", graph_to_text(Graph.from_edges(
        11, [(u, v) for lo in (0, 5) for u in range(lo, lo + 6) for v in range(u + 1, lo + 6)]))
    yield "window 20", graph_to_text(fx.window(20))


def run(path: Path, *flags: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["recognize", str(path), *flags])
    # The file name is the only part of an output that depends on where it ran.
    return f"{status}\n{out.getvalue()}\n{err.getvalue()}".replace(str(path), "<file>")


def main_digest() -> None:
    runs = 0
    shas = {"text": hashlib.sha256(), "json": hashlib.sha256()}
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        for i, g in enumerate(corpus()):
            path.write_text(graph_to_text(g))
            for mode, flags in (("text", ()), ("json", ("--json",))):
                shas[mode].update(f"{i} {run(path, *flags)!r}\n".encode())
                runs += 1
        for name, text in edge_cases():
            path.write_text(text)
            sha = hashlib.sha256()
            for flags in ((), ("--json",)):
                sha.update(f"{run(path, *flags)!r}\n".encode())
                runs += 1
            cases.append((name, sha.hexdigest()))
    print(f"{runs} runs")
    for mode, sha in shas.items():
        print(f"{mode}: {sha.hexdigest()}")
    for name, digest in cases:
        print(f"{name:14} {digest}")


if __name__ == "__main__":
    main_digest()
