import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fixtures as fx
import endvertex
from endvertex import Graph
from endvertex.cli import InputError, graph_to_text, load_graph, main, parse_graph_text

FIG5 = """\
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


@pytest.fixture
def fig5_path(tmp_path):
    p = tmp_path / "fig5.graph"
    p.write_text(FIG5)
    return str(p)


@pytest.fixture
def fig1_path(tmp_path):
    p = tmp_path / "fig1.graph"
    p.write_text("# names t 2 3 4 5 s\n6 6\nt 4\n4 s\ns 5\n5 t\n2 4\n3 5\n")
    return str(p)


def test_parse_graph_text():
    g, names = parse_graph_text("3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2 and names is None
    with pytest.raises(ValueError, match="self-loop"):
        parse_graph_text("2 1\n0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_graph_text("3 1\n0 5\n")
    with pytest.raises(ValueError, match="promises"):
        parse_graph_text("3 2\n0 1\n")
    g2, names2 = parse_graph_text("# names a b c\n3 2\na b\nb c\n")
    assert names2 == ["a", "b", "c"] and g2.has_edge(0, 1)


@pytest.mark.parametrize("text, message", [
    ("", "<input>: missing size line"),
    ("# only a comment\n\n", "<input>: missing size line"),
    ("3\n", "<input>:1: expected 'n m' size line"),
    ("\n3 2 1\n", "<input>:2: expected 'n m' size line"),
    ("3 x\n", "<input>:1: malformed size line '3 x'"),
    ("  1.5 0 \n", "<input>:1: malformed size line '1.5 0'"),
    ("-1 0\n", "<input>:1: negative size"),
    ("3 -2\n", "<input>:1: negative size"),
    ("# names a b\n3 0\n", "<input>:2: names header lists 2 names for 3 vertices"),
    ("# names a b\n# names a\n3 0\n", "<input>:3: duplicate vertex names"),
    ("3 0\n# names a b c\n", "<input>:2: names header after the size line"),
    ("# names a b\n2 1\na z\n", "<input>:3: unknown vertex name 'z'"),
    ("# names a b\n2 1\ny z\n", "<input>:3: unknown vertex name 'y'"),
    ("# names a b\n2 1\na 1\n", "<input>:3: unknown vertex name '1'"),
    ("2 1\n0 b\n", "<input>:2: expected vertex index, got 'b'"),
    ("2 1\nx y\n", "<input>:2: expected vertex index, got 'x'"),
    ("3 1\n0 5\n", "<input>:2: edge endpoint out of range 0..2"),
    ("3 1\n-1 0\n", "<input>:2: edge endpoint out of range 0..2"),
    ("2 1\n1 1\n", "<input>:2: self-loop at vertex 1"),
    ("# names a b\n2 1\nb b\n", "<input>:3: self-loop at vertex b"),
    ("3 1\n0\n", "<input>:2: expected edge 'u v', got '0'"),
    ("3 1\n 0 1 2 \n", "<input>:2: expected edge 'u v', got '0 1 2'"),
    ("3 2\n0 1\n", "<input>: size line promises 2 edges, found 1"),
    ("3 1\n0 1\n1 2\n", "<input>: size line promises 1 edges, found 2"),
    ("\r\n# c\r\n3 1\r\n\r\n0 0\r\n", "<input>:5: self-loop at vertex 0"),
])
def test_parse_rejects_malformed_input(text, message):
    with pytest.raises(InputError) as info:
        parse_graph_text(text)
    assert str(info.value) == message


def test_parse_error_cites_the_source():
    with pytest.raises(InputError, match=r"^g\.txt:3: self-loop at vertex 0$"):
        parse_graph_text("2 2\n0 1\n0 0\n", source="g.txt")


def test_parse_accepts_comments_blank_lines_and_crlf():
    text = ("\r\n# a comment\r\n# names a b\r\n#names c\r\n\r\n3 3\r\n# x\r\n#\r\n"
            "a b\r\n\r\nb a\r\n   # an indented comment\r\nb c\r\n")
    g, names = parse_graph_text(text)
    assert names == ["a", "b", "c"]
    assert g == Graph.from_edges(3, [(0, 1), (1, 2)])  # the repeated a-b counts toward m
    g, names = parse_graph_text("# x\n\n2 1\n# x\n\n  0 1  \n")
    assert names is None and g == Graph.from_edges(2, [(0, 1)])


def test_parse_comment_starting_with_names_is_not_a_header():
    g, names = parse_graph_text("# namesake graph\n2 1\n0 1\n")
    assert names is None and g.has_edge(0, 1)
    g, names = parse_graph_text("2 1\n# namesake graph\n0 1\n")
    assert names is None and g.has_edge(0, 1)
    g, names = parse_graph_text("#names\tp q\n2 1\np q\n")
    assert names == ["p", "q"] and g.has_edge(0, 1)


@pytest.mark.parametrize("named", [False, True])
def test_parse_round_trips_random_graphs(named):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.4])
        names = None
        if named:
            names = rng.sample([f"{c}{i}" for c in "ab1" for i in range(10)], n)
        assert parse_graph_text(graph_to_text(g, names)) == (g, names)


def test_graph_round_trip():
    g, names = parse_graph_text(FIG5)
    text = graph_to_text(g, names)
    g2, names2 = parse_graph_text(text)
    assert g2 == g and names2 == names


def test_cli_endvertex_fig5(fig5_path, capsys):
    assert main(["endvertex", fig5_path, "--kind", "mcs", "--target", "v"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("No")
    assert "incomparable" in out

    assert main(["endvertex", fig5_path, "--kind", "mns", "--target", "v", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "yes" and doc["method"] == "chordal MNS characterization"


def test_cli_oracle_fig1(fig1_path, capsys):
    assert main(["oracle", fig1_path, "--kind", "bfs", "--target", "t", "--start", "s"]) == 0
    assert capsys.readouterr().out.startswith("No")
    assert main(["oracle", fig1_path, "--kind", "bfs", "--start", "s", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["end_vertices"] == ["2", "3"]


def test_cli_search_validate_round_trip(fig5_path, capsys):
    for kind in ("generic", "bfs", "dfs", "lbfs", "ldfs", "mcs", "mns"):
        assert main(["search", fig5_path, "--kind", kind, "--start", "1",
                     "--policy", "random", "--seed", "5", "--json"]) == 0
        order = json.loads(capsys.readouterr().out)["order"]
        assert main(["validate", fig5_path, "--kind", kind,
                     "--order", ",".join(order)]) == 0
        assert capsys.readouterr().out.strip() == "valid"


def test_cli_validate_reports_position(fig5_path, capsys):
    assert main(["validate", fig5_path, "--kind", "bfs", "--order", "6,1,7,2,3,4,v"]) == 0
    out = capsys.readouterr().out
    assert "invalid at position 3" in out


def test_cli_deterministic_outputs(fig5_path, capsys):
    main(["search", fig5_path, "--kind", "mcs", "--policy", "random", "--seed", "123"])
    first = capsys.readouterr().out
    main(["search", fig5_path, "--kind", "mcs", "--policy", "random", "--seed", "123"])
    assert capsys.readouterr().out == first


def test_cli_recognize(fig5_path, capsys):
    assert main(["recognize", fig5_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chordal"] is not None
    assert doc["split"] == {"clique": ["1", "2", "3", "4"], "independent": ["6", "7", "v"]}
    assert doc["interval"] is None
    assert doc["claw_net_free"] is False


def test_cli_recognize_runs_mcs_once(tmp_path, capsys, monkeypatch):
    """One MCS pass settles chordality either way: on a window, interval
    recognition reads its clique tree from the pass, and on C5 and a
    cocktail party the hole is routed through the failed pass's order."""
    calls = []
    original = endvertex.chordal._mcs_pass

    def counted(g, *args):
        calls.append(g)
        return original(g, *args)

    monkeypatch.setattr(endvertex.chordal, "_mcs_pass", counted)
    for g, chordal in ((fx.window(12), True), (fx.cycle(5), False), (fx.cocktail_party(4), False)):
        calls.clear()
        path = tmp_path / "input.graph"
        path.write_text(graph_to_text(g))
        assert main(["recognize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        if chordal:
            assert doc["interval"] is not None and doc["unit_interval"] is not None
        else:
            assert doc["chordal"] is None and len(doc["chordless_cycle"]) >= 4
        assert len(calls) == 1, sorted(g.edges())


@pytest.mark.parametrize("text, lines, doc", [
    ("0 0\n",
     ["chordal: yes (PEO )", "split: yes (C={} I={})", "interval: yes (clique order )",
      "unit interval: yes (order )", "claw/net free: yes"],
     {"command": "recognize", "chordal": [], "chordless_cycle": None,
      "split": {"clique": [], "independent": []}, "interval": [], "unit_interval": [],
      "claw_net_free": True}),
    ("1 0\n",
     ["chordal: yes (PEO 0)", "split: yes (C={0} I={})", "interval: yes (clique order 0)",
      "unit interval: yes (order 0)", "claw/net free: yes"],
     {"command": "recognize", "chordal": ["0"], "chordless_cycle": None,
      "split": {"clique": ["0"], "independent": []}, "interval": [["0"]],
      "unit_interval": ["0"], "claw_net_free": True}),
    (graph_to_text(fx.cycle(6)),
     ["chordal: no (hole 1,2,3,4,5,0)", "split: no", "interval: no", "unit interval: no",
      "claw/net free: yes"],
     {"command": "recognize", "chordal": None, "chordless_cycle": ["1", "2", "3", "4", "5", "0"],
      "split": None, "interval": None, "unit_interval": None, "claw_net_free": True}),
    (FIG5,
     ["chordal: yes (PEO 7,v,2,3,4,6,1)", "split: yes (C={1,2,3,4} I={6,7,v})",
      "interval: no", "unit interval: no", "claw/net free: no"],
     {"command": "recognize", "chordal": ["7", "v", "2", "3", "4", "6", "1"],
      "chordless_cycle": None,
      "split": {"clique": ["1", "2", "3", "4"], "independent": ["6", "7", "v"]},
      "interval": None, "unit_interval": None, "claw_net_free": False}),
], ids=["empty", "one vertex", "C6", "names"])
def test_cli_recognize_output_is_pinned(tmp_path, capsys, text, lines, doc):
    """Byte for byte, text and JSON.  The empty graph is in every class,
    with empty certificates."""
    path = tmp_path / "g.graph"
    path.write_text(text)
    assert main(["recognize", str(path)]) == 0
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
    assert main(["recognize", str(path), "--json"]) == 0
    assert capsys.readouterr() == (json.dumps(doc, indent=2) + "\n", "")


def test_cli_recognize_refuses_a_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("4 2\n0 1\n2 3\n")
    for flags in ([], ["--json"]):
        assert main(["recognize", str(path), *flags]) == 2
        assert capsys.readouterr() == ("", "error: MCS requires a connected graph\n")


def _recognize_json(tmp_path, capsys, g: Graph) -> dict:
    path = tmp_path / "g.graph"
    path.write_text(graph_to_text(g))
    assert main(["recognize", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_recognize_skips_the_claw_net_check_on_unit_interval_graphs(tmp_path, capsys,
                                                                       monkeypatch):
    """Unit interval implies (claw, net)-free, so two 500-cliques sharing
    a vertex never reach the check, which is cubic at that vertex."""
    calls = fx.count_calls(monkeypatch, "is_claw_net_free")
    doc = _recognize_json(tmp_path, capsys, fx.two_cliques(500))
    assert doc["unit_interval"] is not None and doc["claw_net_free"] is True
    assert calls == []


@pytest.mark.parametrize("g", [fx.star(6), fx.claw(), fx.net()], ids=["star", "claw", "net"])
def test_cli_recognize_runs_the_claw_net_check_once_off_unit_interval(tmp_path, capsys,
                                                                      monkeypatch, g):
    calls = fx.count_calls(monkeypatch, "is_claw_net_free")
    doc = _recognize_json(tmp_path, capsys, g)
    assert doc["unit_interval"] is None and doc["claw_net_free"] is False
    assert len(calls) == 1


def test_cli_recognize_checks_split_only_on_chordal_graphs(tmp_path, capsys, monkeypatch):
    calls = fx.count_calls(monkeypatch, "recognize_split")
    doc = _recognize_json(tmp_path, capsys, fx.cycle(6))
    assert doc["chordal"] is None and doc["split"] is None
    assert calls == []


def test_cli_reduce_round_trip(tmp_path, capsys):
    cnf = tmp_path / "fig2.cnf"
    cnf.write_text("p cnf 4 3\n-1 2 -3 0\n1 -3 4 0\n-1 -3 -4 0\n")
    out = tmp_path / "gadget.graph"
    roles = tmp_path / "gadget.roles"
    assert main(["reduce", str(cnf), "--search", "mns", "--out", str(out),
                 "--roles", str(roles), "--witness", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 14 and doc["edges"] == 70 and doc["satisfiable"] is True
    witness = ",".join(str(v) for v in doc["witness"])
    assert main(["validate", str(out), "--kind", "mns", "--order", witness]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    role_lines = roles.read_text().splitlines()
    assert len(role_lines) == 14
    assert role_lines[0] == "0 literal:x1"
    assert f"{doc['target']} t" in role_lines


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n0 0\n")
    assert main(["search", str(bad), "--kind", "bfs"]) == 2
    big = tmp_path / "big.graph"
    big.write_text("20 19\n" + "\n".join(f"{i} {i + 1}" for i in range(19)))
    assert main(["oracle", str(big), "--kind", "bfs"]) == 1
    missing = tmp_path / "nope.graph"
    assert main(["search", str(missing), "--kind", "bfs"]) == 2
    capsys.readouterr()


def test_cli_recursion_error_is_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    """A RecursionError from any step is reported as a one-line error with
    exit status 1 (no library path recurses; a patched recognizer raises)."""
    def recurse(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(endvertex.deciders, "recognize_unit_interval", recurse)
    assert main(["endvertex", _window_file(tmp_path, 20), "--class", "unit-interval",
                 "--kind", "ldfs", "--target", "19", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_cli_unexpected_error_is_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    """Any other unexpected exception, here a failed assertion inside a
    patched recognizer, is also one `error:` line with exit status 1."""
    def broken(g, mcs):
        raise AssertionError("clique path failed its own check\nsecond line")

    monkeypatch.setattr(endvertex.deciders, "_interval_from_pass", broken)
    assert main(["endvertex", _window_file(tmp_path, 20), "--class", "interval",
                 "--kind", "dfs", "--target", "19", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "AssertionError" in lines[0]
    assert "Traceback" not in captured.err


def test_cli_mcs_and_ldfs_on_a_long_window_exit_0(tmp_path, capsys):
    """Interval and unit interval recognition run LBFS sweeps, so auto and
    unit-interval-hinted MCS and LDFS answer on 1500 vertices."""
    path = _window_file(tmp_path, 1500)
    for kind in ("mcs", "ldfs"):
        for hint in ([], ["--class", "unit-interval"]):
            assert main(["endvertex", path, "--kind", kind, "--target", "0", *hint]) == 0
            captured = capsys.readouterr()
            assert captured.out.splitlines()[0] == "Yes" and captured.err == ""


def test_cli_recognize_on_a_long_window_exits_0(tmp_path, capsys):
    assert main(["recognize", _window_file(tmp_path, 10_000), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unit_interval"] is not None and len(doc["interval"]) == 10_000 - 3
    assert doc["claw_net_free"] is True


def _window_file(tmp_path, n):
    """The window graph i ~ j iff |i - j| <= 3, a unit interval graph."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))]
    path = tmp_path / f"window{n}.graph"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def test_cli_auto_mns_and_dfs_on_a_long_window_recognize_only_linear_classes(tmp_path, capsys):
    """MNS needs only chordality, and DFS settles claw-net-freeness with
    the unit interval order, so neither needs interval recognition."""
    path = _window_file(tmp_path, 1000)
    for kind in ("mns", "dfs"):
        assert main(["endvertex", path, "--kind", kind, "--target", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "Yes" and captured.err == ""


def test_cli_guard_errors_name_only_flags_that_exist(tmp_path, capsys):
    """Both commands that can pass a guard, `oracle` and `reduce
    --witness` (its brute-force SAT), take --guard and name it."""
    assert main(["oracle", _path_file(tmp_path, 13), "--kind", "bfs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: exhaustive bfs oracle: size 13 exceeds guard 12 (raise --guard to proceed)"]
    cnf = tmp_path / "k25.cnf"
    clauses = [(v, -(v % 25 + 1), v % 23 + 2) for v in range(1, 11)]
    cnf.write_text("p cnf 25 10\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses))
    assert main(["reduce", str(cnf), "--search", "mns", "--witness"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: brute-force SAT: size 25 exceeds guard 24 (raise --guard to proceed)"]


def test_cli_reduce_guard_is_honoured(tmp_path, capsys):
    cnf = tmp_path / "fig2.cnf"
    cnf.write_text("p cnf 4 3\n-1 2 -3 0\n1 -3 4 0\n-1 -3 -4 0\n")
    query = ["reduce", str(cnf), "--search", "mcs", "--witness", "--json"]
    assert main(query + ["--guard", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: brute-force SAT: size 4 exceeds guard 3 (raise --guard to proceed)"]
    assert main(query + ["--guard", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfiable"] is True and doc["witness"] is not None


def _path_file(tmp_path, n):
    path = tmp_path / f"path{n}.graph"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return str(path)


def test_cli_oracle_guard_is_honoured(tmp_path, capsys):
    path = _path_file(tmp_path, 13)
    query = ["endvertex", path, "--kind", "bfs", "--target", "0", "--json"]
    assert main(query + ["--oracle-guard", "13"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "yes" and doc["method"] == "exhaustive oracle"
    assert main(query) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "unknown"


def test_cli_oracle_on_a_long_path_has_no_recursion_limit(tmp_path, capsys):
    path = _path_file(tmp_path, 1500)
    assert main(["oracle", path, "--kind", "dfs", "--start", "0", "--guard", "1500"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "end vertices: 1499" and captured.err == ""


def _dfs_interval_query(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.graph"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return ["endvertex", str(path), "--class", "interval", "--kind", "dfs", "--target", "0",
            "--json"]


def test_cli_dfs_interval_star_centre_is_no_past_the_path_guard(tmp_path, capsys):
    """G[N(t)] of a 21-leaf star's centre is disconnected, so it has no
    hamiltonian path, whatever its size."""
    query = _dfs_interval_query(tmp_path, "star21", 22, [(0, i) for i in range(1, 22)])
    assert main(query) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "no" and doc["method"] == "interval DFS characterization"


def test_cli_dfs_interval_falls_back_when_the_path_guard_refuses(tmp_path, capsys):
    """A fan (hub 0 on a 21-vertex path) has a connected 21-vertex G[N(0)].
    The linear path cover on the clique path answers it, with no guard and
    no fallback, and the exhaustive oracle agrees."""
    edges = [(0, i) for i in range(1, 22)] + [(i, i + 1) for i in range(1, 21)]
    query = _dfs_interval_query(tmp_path, "fan21", 22, edges)
    assert main(query) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["answer"] == "yes" and doc["method"] == "interval DFS characterization"
    assert doc["detail"] is None and captured.err == ""
    oracle = ["oracle", query[1], "--kind", "dfs", "--target", "0", "--guard", "22", "--json"]
    assert main(oracle) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_end_vertex"] is True and doc["witness"][-1] == "0"


def test_cli_names_resolve_before_raw_indices(tmp_path, capsys):
    path = tmp_path / "digits.graph"
    path.write_text("# names 1 0 x\n3 2\n1 0\n0 x\n")
    assert main(["search", str(path), "--kind", "bfs", "--start", "1"]) == 0
    assert capsys.readouterr().out == "1,0,x\n"
    assert main(["search", str(path), "--kind", "bfs", "--start", "2"]) == 0
    assert capsys.readouterr().out == "x,0,1\n"
    assert main(["search", str(path), "--kind", "bfs", "--start", "zz"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'zz'\n"
    assert main(["search", str(path), "--kind", "bfs", "--start", "7"]) == 2
    assert capsys.readouterr().err == "error: vertex '7' out of range 0..2\n"


def test_load_graph_restores_the_collector(tmp_path):
    good = tmp_path / "good.graph"
    good.write_text("2 1\n0 1\n")
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n0 0\n")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_graph(str(good))
            assert gc.isenabled() is enabled
            with pytest.raises(InputError):
                load_graph(str(bad))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_main_pauses_the_collector_and_restores_it(fig5_path, tmp_path, capsys, monkeypatch):
    """`main` pauses the collector for the whole command, not only the
    load, and leaves it as it found it, on success and on an error exit."""
    seen = []
    run_search = endvertex.cli.run_search

    def recorded(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_search(*args, **kwargs)

    monkeypatch.setattr(endvertex.cli, "run_search", recorded)
    missing = str(tmp_path / "missing.graph")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(["search", fig5_path, "--kind", "bfs"]) == 0
            assert gc.isenabled() is enabled
            assert main(["search", missing, "--kind", "bfs"]) == 2
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]
    capsys.readouterr()


@pytest.mark.parametrize("command", [["endvertex", "--kind", "mcs", "--target", "0"],
                                     ["search", "--kind", "mns"], ["recognize"]])
def test_cli_queries_leave_the_collector_little_that_grows_with_n(tmp_path, capsys, command):
    """What makes pausing the collector for a whole command safe: after a
    query on a window of 2e4 or 4e4 vertices, `gc.collect()` finds only
    the argument parser's own cycles (a few hundred objects), and no more
    at the larger size."""
    found = []
    was_enabled = gc.isenabled()
    try:
        for n in (20_000, 40_000):
            path = _window_file(tmp_path, n)
            gc.collect()
            gc.disable()
            assert main([command[0], path, *command[1:]]) == 0
            found.append(gc.collect())
            capsys.readouterr()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert max(found) <= 1000 and found[1] <= found[0] + 10, found


def test_load_graph_peaks_near_the_graph_it_returns(tmp_path):
    """Loading a 20 000-vertex window file allocates at most 1.25 times
    what the returned graph holds: the file text and the line list are
    gone before the adjacency sets are built, and each adjacency list
    goes once its set exists.  Those sets share one int object per
    vertex id."""
    n = 20_000
    path = _window_file(tmp_path, n)
    gc.collect()
    tracemalloc.start()
    try:
        g, names = load_graph(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert names is None and g.n == n
    assert peak <= 1.25 * held, (peak, held)
    assert len({id(w) for nbrs in g.adj for w in nbrs}) <= n


@pytest.mark.parametrize("module", ["endvertex", "endvertex.cli"])
def test_import_leaves_numpy_unloaded(module):
    """Only the randomized MCS probe uses numpy, so the CLI does not pay
    for importing it."""
    src = str(Path(endvertex.__file__).resolve().parents[1])
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_cli_ldfs_and_mns_round_trip_on_a_20000_vertex_window(tmp_path):
    """`search` then `validate` as separate processes, LDFS and MNS on a
    20 000-vertex window and MNS on a 10 000-vertex random sparse graph,
    whose search frontier grows with n.  The timeout turns a quadratic
    search engine into a failure instead of a hung suite."""
    window = _window_file(tmp_path, 20_000)
    sparse = tmp_path / "sparse10000.graph"
    sparse.write_text(graph_to_text(fx.rand_sparse_connected(random.Random(4001), 10_000, 10)))
    src = str(Path(endvertex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "endvertex.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    for path, n, kind in ((window, 20_000, "ldfs"), (window, 20_000, "mns"),
                          (str(sparse), 10_000, "mns")):
        found = cli("search", path, "--kind", kind)
        assert found.returncode == 0, found.stderr
        order = found.stdout.strip()
        assert sorted(map(int, order.split(","))) == list(range(n))
        checked = cli("validate", path, "--kind", kind, "--order", order)
        assert (checked.returncode, checked.stdout) == (0, "valid\n"), checked.stderr


def test_cli_auto_dfs_on_two_500_cliques_exits_0(tmp_path):
    """Two 500-cliques sharing a vertex (n = 999, m = 249 500) are unit
    interval, so auto DFS never reaches the claw-net check, which is cubic
    at the shared vertex.  The timeout turns that check into a failure
    instead of a hung suite."""
    path = tmp_path / "two_cliques500.graph"
    path.write_text(graph_to_text(fx.two_cliques(500)))
    src = str(Path(endvertex.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "endvertex.cli", "endvertex", str(path),
                           "--kind", "dfs", "--target", "0"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "Yes"
