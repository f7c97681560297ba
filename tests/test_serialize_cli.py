"""File formats, ideal literals, DOT output and the command line."""

import gc
import io
import json

import pytest

from leavitt.catalog import named_graph
from leavitt.errors import GraphError, IdealError, InternalInconsistencyError
from leavitt.graphs import Graph, OMEGA
from leavitt.lattice import QuotientGraph
from leavitt.laurent import QQ, GF
from leavitt.serialize import (
    graph_from_data,
    graph_to_data,
    ideal_from_data,
    ideal_literal,
    ideal_to_data,
    parse_ideal_literal,
)
from leavitt.theorems import sample_ideal_family
from leavitt import cli

from conftest import forks, lattice_of


@pytest.fixture()
def graph_files(tmp_path):
    paths = {}
    for name in ("L1", "T1", "B1", "C2", "RR", "D2"):
        g = named_graph(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_data(g, QQ)))
        paths[name] = str(path)
    return paths


def test_graph_round_trip(named):
    for g in named.values():
        data = graph_to_data(g, QQ)
        back, field = graph_from_data(data)
        assert back == g and field is QQ


def test_graph_file_field_tags():
    data = {"field": "Fp:5", "vertices": ["v"], "edges": [{"src": "v", "dst": "v", "mult": 1}]}
    g, field = graph_from_data(data)
    assert field == GF(5)


def test_graph_file_omega_and_merging():
    data = {
        "vertices": ["u", "a"],
        "edges": [
            {"src": "u", "dst": "a", "mult": "omega"},
            {"src": "u", "dst": "u"},
            {"src": "u", "dst": "u", "mult": 2},
        ],
    }
    g, _ = graph_from_data(data)
    assert g.bundles[("u", "a")] == OMEGA
    assert g.bundles[("u", "u")] == 3


def test_graph_file_rejects_unknown_keys():
    with pytest.raises(GraphError, match="unknown key"):
        graph_from_data({"vertices": [], "edges": [], "name": "x"})
    with pytest.raises(GraphError, match="unknown key"):
        graph_from_data({"vertices": ["v"], "edges": [{"src": "v", "dst": "v", "weight": 1}]})
    with pytest.raises(GraphError, match="missing key"):
        graph_from_data({"vertices": ["v"]})
    with pytest.raises(GraphError, match="multiplicity"):
        graph_from_data({"vertices": ["v"], "edges": [{"src": "v", "dst": "v", "mult": 0}]})


def test_ideal_literal_round_trip(corpus):
    for g in corpus[:40]:
        for I in sample_ideal_family(g, lattice_of(g)):
            text = ideal_literal(I)
            assert parse_ideal_literal(g, QQ, text) == I


def test_ideal_literal_validation(named):
    T1 = named["T1"]
    with pytest.raises(IdealError, match="exitless"):
        ideal_from_data(T1, QQ, {"H": [], "S": [], "components": [{"cycle": ["v"], "poly": "1+x"}]})
    with pytest.raises(GraphError, match="unknown key"):
        ideal_from_data(T1, QQ, {"H": [], "S": [], "extra": 1})
    with pytest.raises(IdealError, match="invalid JSON"):
        parse_ideal_literal(T1, QQ, "{not json")
    # every value must have its JSON type; a string is not read as a vertex list
    cycle = {"cycle": ["v"], "poly": "1+x"}
    for data, reason in (
        ({"H": "w", "S": []}, "H must be a list"),
        ({"H": ["w"], "S": [None]}, "S must be a list"),
        ({"H": ["w"], "S": [], "components": cycle}, "components must be a list"),
        ({"H": ["w"], "S": [], "components": [dict(cycle, cycle="v")]}, "cycle must be a list"),
        ({"H": ["w"], "S": [], "components": [dict(cycle, cycle=[])]}, "must not be empty"),
        ({"H": ["w"], "S": [], "components": [dict(cycle, poly=["1+x"])]}, "poly must be a string"),
    ):
        with pytest.raises(IdealError, match=reason):
            ideal_from_data(T1, QQ, data)


A_LITERAL = '{"H":["w"],"S":[],"components":[{"cycle":["v"],"poly":"1+x"}]}'


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_analyze_text(graph_files, capsys):
    rc, out, _ = run_cli(capsys, "analyze", graph_files["L1"])
    assert rc == 0
    assert "Condition (L): false" in out
    assert "graded primes: 1" in out
    rc, out, _ = run_cli(capsys, "analyze", graph_files["C2"])
    assert rc == 0
    assert "Condition (K): true" in out
    assert "ideal count: 3" in out
    assert "everything prime: ideals=true criterion=true chain=true agree=true" in out


def test_cli_analyze_json_schema(graph_files, capsys):
    rc, out, _ = run_cli(capsys, "analyze", graph_files["T1"], "--json")
    assert rc == 0
    report = json.loads(out)
    for key in ("graph", "conditionK", "conditionL", "latticeSize", "primes", "checks"):
        assert key in report
    assert report["latticeSize"] == 3
    assert report["conditionK"] is False
    assert report["checks"]["idealCount"] == "infinite"
    assert len(report["primes"]) == 2


def test_cli_determinism(graph_files, capsys):
    rc1, out1, _ = run_cli(capsys, "analyze", graph_files["B1"], "--json")
    rc2, out2, _ = run_cli(capsys, "analyze", graph_files["B1"], "--json")
    assert rc1 == rc2 == 0 and out1 == out2
    rc1, dot1, _ = run_cli(capsys, "lattice", graph_files["B1"], "--dot")
    rc2, dot2, _ = run_cli(capsys, "lattice", graph_files["B1"], "--dot")
    assert rc1 == rc2 == 0 and dot1 == dot2


def test_cli_lattice_dot(graph_files, capsys):
    rc, out, _ = run_cli(capsys, "lattice", graph_files["B1"], "--dot")
    assert rc == 0
    assert out.startswith("digraph")
    assert out.count("[label=") == 6
    assert "peripheries=2" in out  # primes double-circled
    assert "style=filled" in out  # maximals filled
    rc, out, _ = run_cli(capsys, "lattice", graph_files["L1"], "--dot")
    assert out.count("->") == 1  # two-node chain


def test_cli_ideal_ops(graph_files, capsys):
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "limit")
    assert rc == 0 and '"H": ["w"]' in out and '"components": []' in out
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "gr")
    assert rc == 0 and "gr: ({w}, {})" in out
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "power", "3")
    assert rc == 0 and "1+3x+3x^2+x^3" in out
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "krull")
    assert rc == 0 and "krull: false" in out
    sq = '{"H":[],"S":[],"components":[{"cycle":["v"],"poly":"1+2x+x^2"}]}'
    rc, out, _ = run_cli(capsys, "ideal", graph_files["L1"], sq, "primes-over")
    assert rc == 0 and "equals input: no" in out and '"poly": "1+x"' in out
    both = '{"H":["w"],"S":[],"components":[{"cycle":["v"],"poly":"1+x+x^2+x^3"}]}'
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], both, "decompose")
    assert rc == 0 and '"poly": "1+x"' in out and '"poly": "1+x^2"' in out
    rc, out, _ = run_cli(capsys, "ideal", graph_files["D2"], '{"H":[],"S":[]}', "factor")
    assert rc == 0 and "({v1}, {})" in out and "({v2}, {})" in out


def test_cli_ideal_json_round_trip(graph_files, capsys):
    rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "power", "2", "--json")
    assert rc == 0
    data = json.loads(out)
    g = named_graph("T1")
    back = ideal_from_data(g, QQ, data["result"])
    assert ideal_to_data(back) == data["result"]


def test_cli_error_exit_codes(graph_files, tmp_path, capsys):
    rc, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert rc == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "invalid JSON" in err
    rc, _, err = run_cli(capsys, "ideal", graph_files["T1"], "{bad", "gr")
    assert rc == 2
    rc, _, err = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, "power")
    assert rc == 2 and "exponent" in err
    for op in ("gr", "limit", "krull", "factor"):
        rc, out, err = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, op, "3")
        assert rc == 2 and out == "" and "only for the power op" in err
    # a component cycle with an exit is a validation error
    bad_ideal = '{"H":[],"S":[],"components":[{"cycle":["v"],"poly":"1+x"}]}'
    rc, _, err = run_cli(capsys, "ideal", graph_files["T1"], bad_ideal, "gr")
    assert rc == 2 and "exitless" in err


def test_cli_internal_inconsistency_exit_code(graph_files, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalInconsistencyError("simulated cross-check failure")

    monkeypatch.setattr(cli, "enumerate_pairs", boom)
    rc, _, err = run_cli(capsys, "analyze", graph_files["L1"])
    assert rc == 3 and "internal inconsistency" in err


def test_cli_lattice_free_ideal_ops_skip_the_lattice(graph_files, capsys, monkeypatch):
    from leavitt import lattice

    def boom(*args, **kwargs):
        raise AssertionError("the pair lattice was enumerated")

    monkeypatch.setattr(lattice, "enumerate_pairs", boom)
    monkeypatch.setattr(cli, "enumerate_pairs", boom)
    for op in (["gr"], ["power", "2"], ["limit"], ["krull"]):
        rc, out, _ = run_cli(capsys, "ideal", graph_files["T1"], A_LITERAL, *op)
        assert rc == 0 and out.startswith(op[0])


def test_cli_stdin_and_field_override(graph_files, capsys, monkeypatch):
    text = json.dumps(graph_to_data(named_graph("L1"), QQ))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, _ = run_cli(capsys, "analyze", "-", "--field", "Fp:5", "--json")
    assert rc == 0
    assert json.loads(out)["field"] == "Fp:5"


@pytest.fixture()
def forks3_file(tmp_path):
    path = tmp_path / "forks3.json"
    path.write_text(json.dumps(graph_to_data(forks(3), QQ)))
    return str(path)


def test_cli_reports_build_no_quotient_graph(forks3_file, capsys, monkeypatch):
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for argv in (["analyze", forks3_file, "--json"], ["lattice", forks3_file, "--dot"]):
        built.clear()
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0 and len(built) == 1, argv  # the loaded graph only


def test_lattice_dot_reads_covers_and_flags_by_index(monkeypatch):
    from leavitt.lattice import PairLattice, enumerate_pairs
    from leavitt.serialize import lattice_dot

    def boom(*args, **kwargs):
        raise AssertionError("lattice_dot looked a pair up")

    lat = enumerate_pairs(forks(3))
    monkeypatch.setattr(PairLattice, "index", boom)
    monkeypatch.setattr(PairLattice, "upper_covers", boom)
    dot = lattice_dot(lat.graph, lat)
    assert dot.count(" -> ") == 3 * 6**2 * 7  # each fork's six pairs have seven cover edges


def test_cli_memos_make_no_reference_cycles(forks3_file, capsys):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rc, _, _ = run_cli(capsys, "analyze", forks3_file)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (Graph, QuotientGraph))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert rc == 0 and not cyclic


def test_cli_builds_the_parser_once(graph_files, capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        rc, _, _ = run_cli(capsys, "lattice", graph_files["L1"])
        assert rc == 0
    assert cli._parser.cache_info().misses == 1
