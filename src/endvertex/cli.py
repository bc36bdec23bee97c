"""Command-line surface.

Graph files are edge lists: a "n m" size line, then m lines "u v"
(vertex names when a names header is present, 0-based indices
otherwise).  Lines starting with "#" are comments and may appear on any
line; a comment whose first word is exactly "names" is a names header,
which lists the vertices' names and may span several lines, all before
the size line.  Blank lines are skipped.  Duplicate edges collapse but
count toward m; self-loops and out-of-range endpoints are rejected with
the offending line number.  CNF files are DIMACS.

Every subcommand accepts --json and then emits a single structured
document with stable field names.  Exit status is 0 for any computed
answer (including "no"/"invalid"), 1 when a size guard is exceeded or
a recursive step runs out of interpreter stack (a one-line message, no
traceback), 2 for malformed input.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .chordal import chordal_hole, recognize_chordal
from .deciders import Verdict, dispatch_endvertex
from .errors import GuardExceededError
from .graph import Graph
from .oracle import (
    DEFAULT_GUARD_PREFIX,
    DEFAULT_GUARD_SET_STATE,
    endvertex_set_exhaustive,
    is_endvertex_exhaustive,
)
from .recognize import (
    _unit_interval_order,
    is_claw_net_free,
    recognize_interval,
    recognize_split,
)
from .reduction import (
    DEFAULT_SAT_GUARD,
    build_mcs_gadget,
    build_mns_gadget,
    parse_dimacs,
    role_to_str,
    sat_bruteforce,
    witness_order_mcs,
    witness_order_mns,
)
from .search import (
    HIGHEST_ID,
    LOWEST_ID,
    SearchKind,
    SeededRandom,
    run_search,
    validate_order,
)


class InputError(ValueError):
    pass


def _names_header(line: str) -> list[str] | None:
    """The names a comment line lists, when its first word is exactly 'names'."""
    words = line[1:].split()
    return words[1:] if words[:1] == ["names"] else None


def parse_graph_text(text: str, source: str = "<input>") -> tuple[Graph, list[str] | None]:
    """Parse the edge-list format; returns the graph and its name table
    (None when vertices are anonymous indices)."""
    names: list[str] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            names.extend(_names_header(line) or ())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{source}:{lineno}: expected 'n m' size line")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{source}:{lineno}: malformed size line {line!r}") from None
        if n < 0 or m < 0:
            raise InputError(f"{source}:{lineno}: negative size")
        if names and len(names) != n:
            raise InputError(
                f"{source}:{lineno}: names header lists {len(names)} names for {n} vertices")
        if names and len(set(names)) != n:
            raise InputError(f"{source}:{lineno}: duplicate vertex names")
        break
    else:
        raise InputError(f"{source}: missing size line")
    # One callable turns an endpoint token into a vertex id; the messages
    # for a token it rejects are worked out only when one fails.
    convert = {name: i for i, name in enumerate(names)}.__getitem__ if names else int
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        parts = raw.split()
        if len(parts) != 2 or parts[0][0] == "#":
            if not parts:
                continue
            line = raw.strip()
            if line[0] != "#":
                raise InputError(f"{source}:{lineno}: expected edge 'u v', got {line!r}")
            if _names_header(line) is not None:
                raise InputError(f"{source}:{lineno}: names header after the size line")
            continue
        try:
            u = convert(parts[0])
            v = convert(parts[1])
        except (KeyError, ValueError):
            what = "unknown vertex name" if names else "expected vertex index, got"
            for token in parts:
                try:
                    convert(token)
                except (KeyError, ValueError):
                    raise InputError(f"{source}:{lineno}: {what} {token!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{source}:{lineno}: edge endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"{source}:{lineno}: self-loop at vertex {parts[0]}")
        us.append(u)
        vs.append(v)
    if len(us) != m:
        raise InputError(f"{source}: size line promises {m} edges, found {len(us)}")
    return Graph.from_edges(n, zip(us, vs)), (names or None)


def load_graph(path: str) -> tuple[Graph, list[str] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # The build allocates a few GC-tracked containers per vertex, none in a
    # reference cycle, and each full collection would rescan the growing
    # graph.  The collector's state is process-wide, so the CLI (which owns
    # the process) pauses it here rather than Graph, which serves any caller.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_graph_text(text, source=path)
    finally:
        if enabled:
            gc.enable()


def graph_to_text(g: Graph, names: list[str] | None = None) -> str:
    lines = []
    if names is not None:
        lines.append("# names " + " ".join(names))
    edge_list = sorted(g.edges())
    lines.append(f"{g.n} {len(edge_list)}")
    for u, v in edge_list:
        if names is not None:
            lines.append(f"{names[u]} {names[v]}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


class _Namer:
    def __init__(self, names: list[str] | None):
        self.names = names
        self.ids = {name: i for i, name in enumerate(names or ())}

    def of(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def seq(self, vertices) -> list[str]:
        return [self.of(v) for v in vertices]

    def to_id(self, token: str, n: int) -> int:
        if token in self.ids:
            return self.ids[token]
        try:  # raw indices are accepted even with names
            v = int(token)
        except ValueError:
            raise InputError(f"unknown vertex {token!r}") from None
        if not 0 <= v < n:
            raise InputError(f"vertex {token!r} out of range 0..{n - 1}")
        return v


def _emit(args, document: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for line in text_lines:
            print(line)


def _policy(args):
    if args.policy == "lowest":
        return LOWEST_ID
    if args.policy == "highest":
        return HIGHEST_ID
    return SeededRandom(args.seed)


def cmd_search(args) -> int:
    g, names = load_graph(args.file)
    namer = _Namer(names)
    kind = SearchKind.parse(args.kind)
    start = namer.to_id(args.start, g.n) if args.start is not None else None
    order = run_search(kind, g, start=start, policy=_policy(args))
    _emit(args,
          {"command": "search", "kind": kind.value, "order": namer.seq(order)},
          [",".join(namer.seq(order))])
    return 0


def cmd_validate(args) -> int:
    g, names = load_graph(args.file)
    namer = _Namer(names)
    kind = SearchKind.parse(args.kind)
    order = [namer.to_id(tok, g.n) for tok in args.order.split(",") if tok]
    ok, position = validate_order(kind, g, order)
    _emit(args,
          {"command": "validate", "kind": kind.value, "valid": ok,
           "violation_position": position},
          ["valid"] if ok else [f"invalid at position {position}"])
    return 0


def cmd_endvertex(args) -> int:
    g, names = load_graph(args.file)
    namer = _Namer(names)
    kind = SearchKind.parse(args.kind)
    t = namer.to_id(args.target, g.n)
    hint = None if args.graph_class == "auto" else args.graph_class
    res = dispatch_endvertex(g, t, kind, class_hint=hint, oracle_guard=args.oracle_guard,
                             name_of=namer.of)
    doc = {
        "command": "endvertex",
        "kind": kind.value,
        "target": namer.of(t),
        "answer": res.verdict.value,
        "method": res.method,
        "classes": list(res.classes),
        "detail": res.detail,
        "witness": namer.seq(res.witness) if res.witness is not None else None,
    }
    lines = [{"yes": "Yes", "no": "No", "unknown": "Unknown"}[res.verdict.value]
             + (f" ({res.detail})" if res.verdict is Verdict.UNKNOWN and res.detail else "")]
    lines.append(f"method: {res.method}")
    if res.detail and res.verdict is not Verdict.UNKNOWN:
        lines.append(f"detail: {res.detail}")
    if res.witness is not None:
        lines.append("witness: " + ",".join(namer.seq(res.witness)))
    _emit(args, doc, lines)
    return 0


def cmd_oracle(args) -> int:
    g, names = load_graph(args.file)
    namer = _Namer(names)
    kind = SearchKind.parse(args.kind)
    start = namer.to_id(args.start, g.n) if args.start is not None else None
    if args.target is not None:
        t = namer.to_id(args.target, g.n)
        ok, witness = is_endvertex_exhaustive(g, kind, t, start=start, guard=args.guard)
        doc = {"command": "oracle", "kind": kind.value, "target": namer.of(t),
               "is_end_vertex": ok,
               "witness": namer.seq(witness) if witness else None}
        lines = ["Yes" if ok else "No"]
        if witness:
            lines.append("witness: " + ",".join(namer.seq(witness)))
        _emit(args, doc, lines)
    else:
        result = endvertex_set_exhaustive(g, kind, start=start, guard=args.guard)
        doc = {"command": "oracle", "kind": kind.value,
               "end_vertices": namer.seq(sorted(result))}
        _emit(args, doc, ["end vertices: " + ",".join(namer.seq(sorted(result)))])
    return 0


def cmd_reduce(args) -> int:
    with open(args.cnf, "r", encoding="utf-8") as fh:
        cnf = parse_dimacs(fh.read())
    art = build_mns_gadget(cnf) if args.search == "mns" else build_mcs_gadget(cnf)
    graph_text = graph_to_text(art.graph)
    roles_text = "".join(f"{v} {role_to_str(art.roles[v])}\n" for v in range(art.graph.n))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
    if args.roles:
        with open(args.roles, "w", encoding="utf-8") as fh:
            fh.write(roles_text)
    witness = None
    satisfiable = None
    if args.witness:
        assignment = sat_bruteforce(cnf, args.guard)
        satisfiable = assignment is not None
        if assignment is not None:
            witness = (witness_order_mns(cnf, assignment) if args.search == "mns"
                       else witness_order_mcs(cnf, assignment))
    doc = {
        "command": "reduce",
        "search": args.search,
        "vertices": art.graph.n,
        "edges": art.graph.m,
        "target": art.target,
        "satisfiable": satisfiable,
        "witness": witness,
    }
    lines = [f"gadget: {art.graph.n} vertices, {art.graph.m} edges, target {art.target}"]
    if not args.out:
        lines.append(graph_text.rstrip("\n"))
    if not args.roles:
        lines.append(roles_text.rstrip("\n"))
    if args.witness:
        lines.append(f"satisfiable: {'yes' if satisfiable else 'no'}")
        if witness is not None:
            lines.append("witness: " + ",".join(map(str, witness)))
    _emit(args, doc, lines)
    return 0


def cmd_recognize(args) -> int:
    g, names = load_graph(args.file)
    namer = _Namer(names)
    peo = recognize_chordal(g)
    hole = None if peo is not None else chordal_hole(g)
    split = recognize_split(g)
    interval = recognize_interval(g, peo) if peo is not None else None
    # recognize_interval has checked connectivity.
    unit = _unit_interval_order(g) if interval is not None else None
    claw_net_free = is_claw_net_free(g)
    doc = {
        "command": "recognize",
        "chordal": namer.seq(peo) if peo is not None else None,
        "chordless_cycle": namer.seq(hole) if hole is not None else None,
        "split": ({"clique": sorted(namer.seq(split.clique)),
                   "independent": sorted(namer.seq(split.independent))}
                  if split is not None else None),
        "interval": ([sorted(namer.seq(c)) for c in interval.cliques]
                     if interval is not None else None),
        "unit_interval": namer.seq(unit) if unit is not None else None,
        "claw_net_free": claw_net_free,
    }
    lines = []
    if peo is not None:
        lines.append("chordal: yes (PEO " + ",".join(namer.seq(peo)) + ")")
    else:
        lines.append("chordal: no (hole " + ",".join(namer.seq(hole)) + ")")
    if split is not None:
        lines.append("split: yes (C={" + ",".join(sorted(namer.seq(split.clique)))
                     + "} I={" + ",".join(sorted(namer.seq(split.independent))) + "})")
    else:
        lines.append("split: no")
    if interval is not None:
        lines.append("interval: yes (clique order "
                     + " | ".join(",".join(sorted(namer.seq(c))) for c in interval.cliques) + ")")
    else:
        lines.append("interval: no")
    if unit is not None:
        lines.append("unit interval: yes (order " + ",".join(namer.seq(unit)) + ")")
    else:
        lines.append("unit interval: no")
    lines.append(f"claw/net free: {'yes' if claw_net_free else 'no'}")
    _emit(args, doc, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endvertex",
        description="Graph searches, end-vertex deciders, and 3-SAT end-vertex gadgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("search", help="run a graph search")
    p.add_argument("file")
    p.add_argument("--kind", required=True)
    p.add_argument("--start", default=None)
    p.add_argument("--policy", choices=("lowest", "highest", "random"), default="lowest",
                   help="tie-break: lowest or highest id first, or (random) a uniformly "
                        "random vertex ranking drawn once from --seed")
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("validate", help="check an ordering against a search's rule")
    p.add_argument("file")
    p.add_argument("--kind", required=True)
    p.add_argument("--order", required=True, help="comma-separated vertex list")
    add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("endvertex", help="decide whether a vertex can end a search")
    p.add_argument("file")
    p.add_argument("--kind", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--class", dest="graph_class", default="auto",
                   choices=("auto", "split", "chordal", "interval", "unit-interval"))
    p.add_argument("--oracle-guard", type=int, default=None,
                   help="largest graph the exhaustive fallback may enumerate (default: "
                        f"{DEFAULT_GUARD_SET_STATE} for MCS/MNS, {DEFAULT_GUARD_PREFIX} otherwise)")
    add_json(p)
    p.set_defaults(func=cmd_endvertex)

    p = sub.add_parser("oracle", help="exhaustive end-vertex enumeration")
    p.add_argument("file")
    p.add_argument("--kind", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--start", default=None)
    p.add_argument("--guard", type=int, default=None)
    add_json(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="compile a 3-SAT instance to an end-vertex gadget")
    p.add_argument("cnf")
    p.add_argument("--search", required=True, choices=("mns", "mcs"))
    p.add_argument("--out", default=None, help="write the gadget graph here")
    p.add_argument("--roles", default=None, help="write the role map here")
    p.add_argument("--witness", action="store_true",
                   help="brute-force SAT and emit a witness order when satisfiable")
    p.add_argument("--guard", type=int, default=DEFAULT_SAT_GUARD,
                   help="most variables the --witness brute force may enumerate "
                        f"(default: {DEFAULT_SAT_GUARD})")
    add_json(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("recognize", help="graph-class report with certificates")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_recognize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        # `endvertex` answers Unknown past its guards, so this comes from
        # `oracle` or from `reduce`'s brute-force SAT, which both take --guard.
        print(f"error: {exc} (raise --guard to proceed)", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large for a recursive step (interpreter recursion limit reached)",
              file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
