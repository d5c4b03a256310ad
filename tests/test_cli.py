import json
import os
import subprocess
import sys

import numpy as np
import pytest

from decmin.cli import main

import util


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def i1_table(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text('{"n": 2, "values": {"1": 0, "2": 0, "3": 1}}')
    return str(path)


@pytest.fixture()
def r62_table(tmp_path):
    from util import dump_table_json

    path = tmp_path / "r62.json"
    path.write_text(dump_table_json(util.r62_handle().oracle))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text("p orient 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    return str(path)


def test_decmin_command(i1_table, capsys):
    code, out, _ = run_cli(["decmin", "--table", i1_table, "--verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["m"]) == [0, 1] and doc["betas"] == [1]


def test_certify_command(r62_table, capsys):
    code, out, _ = run_cli(
        ["certify", "--table", r62_table, "--m", "2,3,3,1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["W"] == 23 and doc["gap"] == 0
    assert doc["O1"] and doc["O2"] and doc["dual_optimal"]
    assert doc["pi_star"] == [3, 5, 5, 1]


def test_canonical_command(r62_table, capsys):
    code, out, _ = run_cli(["canonical", "--table", r62_table], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["betas"] == [3, 2, 1]


def test_orient_command(c4_file, capsys):
    code, out, _ = run_cli(
        ["orient", "--graph", c4_file, "--verify"], capsys
    )
    assert code == 0
    assert json.loads(out)["indeg"] == [1, 1, 1, 1]


def test_orient_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text("p orient 3 2\ne 1 2\ne 2 3\nb 2 0 0\nb 1 0 0\nb 3 0 0\n")
    code, out, _ = run_cli(["orient", "--graph", str(path)], capsys)
    assert code == 2
    assert "witness" in json.loads(out)


def test_orient_k_and_capacitated(tmp_path, capsys):
    path = tmp_path / "c4k.g"
    path.write_text("p orient 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    code, out, _ = run_cli(["orient", "--graph", str(path), "--k", "1"], capsys)
    assert code == 0 and json.loads(out)["indeg"] == [1, 1, 1, 1]
    cap = tmp_path / "edge5.g"
    cap.write_text("p orient 2 1\ne 1 2 1 5\n")
    code, out, _ = run_cli(
        ["orient", "--graph", str(cap), "--capacitated", "--verify"], capsys
    )
    assert code == 0
    assert sorted(json.loads(out)["indeg"]) == [2, 3]


def test_orient_cheapest_with_connectivity_is_an_error(c4_file, capsys):
    # costs and connectivity cannot be combined: no k-connected answer
    # with a cost that was never minimised
    code, out, err = run_cli(
        ["orient", "--graph", c4_file, "--k", "1", "--cheapest"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: costs and connectivity cannot be combined\n"


@pytest.fixture()
def chorded_c4(tmp_path):
    path = tmp_path / "c4chord.g"
    path.write_text("p orient 4 5\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ne 1 3\n")
    return path


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--minT", "1", "--k", "1"], "min-indeg-T and connectivity cannot be combined"),
        (["--minT", "1", "--cheapest"], "--minT and --cheapest cannot be combined"),
        (["--capacitated", "--k", "1"], "--capacitated takes no --k, --minT, --cheapest or b lines"),
        (["--capacitated", "--minT", "1"], "--capacitated takes no --k, --minT, --cheapest or b lines"),
        (["--capacitated", "--cheapest"], "--capacitated takes no --k, --minT, --cheapest or b lines"),
    ],
)
def test_orient_rejects_flags_it_would_drop(chorded_c4, capsys, extra, message):
    code, out, err = run_cli(["orient", "--graph", str(chorded_c4), *extra], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_orient_capacitated_rejects_bound_lines(chorded_c4, capsys):
    chorded_c4.write_text(chorded_c4.read_text() + "b 1 0 0\n")
    code, out, err = run_cli(["orient", "--graph", str(chorded_c4), "--capacitated"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --capacitated takes no --k, --minT, --cheapest or b lines\n"


def test_min_indeg_T_spec_rejects_connectivity():
    from decmin import orientation

    G = orientation.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    spec = orientation.OrientationSpec(
        t_set=frozenset({0}), connectivity=1, objective="min-indeg-T"
    )
    with pytest.raises(ValueError, match="min-indeg-T and connectivity"):
        orientation.solve_orientation_spec(G, spec)


def test_matroid_sum_infeasible_box_carries_witness(tmp_path, capsys):
    # edge 2 is a bridge: both spanning trees take it, above its bound 1
    path = tmp_path / "bridge.json"
    path.write_text('{"type": "graphic", "n_nodes": 3, "edges": [[0,1],[0,1],[1,2]]}')
    code, out, _ = run_cli(
        ["matroid-sum", "--matroid", str(path), "--matroid", str(path),
         "--upper", "2,2,1"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["witness"] == [2]


def test_decmin_on_a_table_with_no_member_is_infeasible(tmp_path, capsys):
    # p({0}) + p({1}) > p({0, 1}): no vector meets the table, and the
    # empty set is reported like every other command's
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "values": {"1": 1, "2": 1, "3": 1}}')
    code, out, err = run_cli(["decmin", "--table", str(path)], capsys)
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["infeasible"] and doc["witness"] == []


def test_verify_says_when_it_checks_nothing(tmp_path, capsys):
    # a 15-cycle is past the 2^m scan: the answer stands, stderr says so
    path = tmp_path / "c15.g"
    path.write_text(
        "p orient 15 15\n" + "".join(f"e {v} {v % 15 + 1}\n" for v in range(1, 16))
    )
    plain = run_cli(["orient", "--graph", str(path)], capsys)
    code, out, err = run_cli(["orient", "--graph", str(path), "--verify"], capsys)
    assert (code, out) == plain[:2] and code == 0
    assert err == "verification skipped: 15 edges, the 2^m scan stops at 14\n"


def test_semimatch_command(tmp_path, capsys):
    path = tmp_path / "sm.json"
    path.write_text('{"n_left": 2, "n_right": 1, "edges": [[0,0],[1,0]]}')
    code, out, _ = run_cli(["semimatch", "--instance", str(path)], capsys)
    assert code == 0
    assert sorted(json.loads(out)["left_degrees"]) == [0, 1]


def test_matroid_sum_command(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m1.write_text('{"type": "uniform", "n": 2, "r": 1}')
    code, out, _ = run_cli(
        ["matroid-sum", "--matroid", str(m1), "--matroid", str(m1)], capsys
    )
    assert code == 0
    assert json.loads(out)["sum"] == [1, 1]


def test_megiddo_command(tmp_path, capsys):
    path = tmp_path / "meg.txt"
    path.write_text("p digraph 3 2\na 1 3 1\na 2 3 1\nS: 1 2\nT: 3\n")
    code, out, _ = run_cli(["megiddo", "--instance", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["outflow"] == [1, 1]


def test_rootvec_command(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text("p digraph 3 3\na 1 2\na 2 3\na 3 1\n")
    code, out, _ = run_cli(["rootvec", "--digraph", str(path), "--k", "1"], capsys)
    assert code == 0
    assert sorted(json.loads(out)["m"]) == [0, 0, 1]


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", "--seed", "3", "--count", "5"], capsys)
    assert code == 0
    assert out.count("pass") == 5


def test_parse_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(["decmin", "--table", missing], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "command, flag, text",
    [
        pytest.param("megiddo", "--instance", "p digraph 3 1\na 1\nS: 1\nT: 3\n",
                     id="megiddo-short-arc"),
        pytest.param("megiddo", "--instance", "p digraph 3 1\na 1 3\nS: 1\nT: 3\nM:\n",
                     id="megiddo-empty-amount"),
        pytest.param("rootvec", "--digraph", "p digraph 3 1\na 1\n", id="digraph-short-arc"),
        pytest.param("rootvec", "--digraph", "p\na 1 2\n", id="digraph-short-problem"),
        pytest.param("semimatch", "--instance", '{"n_right": 1, "edges": [[0, 0]]}',
                     id="semimatch-no-n-left"),
        pytest.param("semimatch", "--instance", "[1, 2]", id="semimatch-not-an-object"),
        pytest.param("matroid-sum", "--matroid",
                     '{"type": "graphic", "n_nodes": 2, "edges": [[0, 5]]}',
                     id="matroid-endpoint-out-of-range"),
        pytest.param("matroid-sum", "--matroid", '{"n": 2, "r": 1}', id="matroid-no-type"),
        pytest.param("orient", "--graph", "p orient 3 1\ne 1\n", id="graph-short-edge"),
        pytest.param("decmin", "--table", '{"values": {}}', id="table-no-n"),
    ],
)
def test_malformed_file_exit_code(tmp_path, capsys, command, flag, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    args = [command, flag, str(path)] + (["--k", "1"] if command == "rootvec" else [])
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("node", ["0", "-1", "4"])
def test_orient_rejects_bound_lines_outside_the_nodes(tmp_path, capsys, node):
    # node 0 would otherwise bound node 3, the last one
    path = tmp_path / "g.txt"
    path.write_text(f"p orient 3 2\ne 1 2\ne 2 3\nb {node} 0 0\n")
    code, out, err = run_cli(["orient", "--graph", str(path)], capsys)
    assert code == 1 and out == ""
    assert f"bound line for node {node} outside 1..3" in err


@pytest.mark.parametrize("n, message", [(64, "exceeds subset ceiling"), (0, "needs n >= 1")])
def test_table_size_is_checked_before_the_values_exist(tmp_path, capsys, n, message):
    # 2^64 values cannot be allocated at all; an error must come first
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n}))
    code, out, err = run_cli(["decmin", "--table", str(path)], capsys)
    assert code == 1 and out == ""
    assert message in err


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "decmin.cli", "bogus-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_output_byte_stable(i1_table, c4_file):
    env = dict(os.environ)
    runs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "decmin.cli", "decmin", "--table", i1_table],
            capture_output=True,
            text=True,
            env=env,
        )
        runs.add(proc.stdout)
    assert len(runs) == 1
    runs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "decmin.cli", "orient", "--graph", c4_file],
            capture_output=True,
            text=True,
            env=env,
        )
        runs.add(proc.stdout)
    assert len(runs) == 1


def test_text_format(i1_table, capsys):
    code, out, _ = run_cli(
        ["--format", "text", "decmin", "--table", i1_table], capsys
    )
    assert code == 0
    assert out.startswith("betas:")


def test_brute_ceiling_env(i1_table, capsys, monkeypatch):
    monkeypatch.setattr("decmin.core.SUBSET_CEILING", 1)
    code, _, err = run_cli(["decmin", "--table", i1_table], capsys)
    assert code == 1  # ceiling of 1 forbids the 2-element scan
    assert err == "error: a table on n=2 exceeds subset ceiling 1\n"


def test_verify_switch_on_all_solvers(tmp_path, capsys):
    # minT / k / cheapest orientations
    g = tmp_path / "g.g"
    g.write_text("p orient 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    for extra in (["--k", "1"], ["--minT", "1"], ["--cheapest"]):
        code, out, _ = run_cli(
            ["orient", "--graph", str(g), "--verify", *extra], capsys
        )
        assert code == 0
    sm = tmp_path / "sm.json"
    sm.write_text('{"n_left": 2, "n_right": 2, "edges": [[0,0],[1,1],[0,1]]}')
    code, _, _ = run_cli(["semimatch", "--instance", str(sm), "--verify"], capsys)
    assert code == 0
    ms = tmp_path / "tri.json"
    ms.write_text(
        '{"type": "graphic", "n_nodes": 3, "edges": [[0,1],[1,2],[2,0]]}'
    )
    code, _, _ = run_cli(
        ["matroid-sum", "--matroid", str(ms), "--matroid", str(ms), "--verify"],
        capsys,
    )
    assert code == 0
    meg = tmp_path / "meg.txt"
    meg.write_text("p digraph 3 3\na 1 3 1\na 1 3 1\na 2 3 1\nS: 1 2\nT: 3\n")
    code, _, _ = run_cli(["megiddo", "--instance", str(meg), "--verify"], capsys)
    assert code == 0
    rv = tmp_path / "c3.txt"
    rv.write_text("p digraph 3 3\na 1 2\na 2 3\na 3 1\n")
    code, _, _ = run_cli(
        ["rootvec", "--digraph", str(rv), "--k", "1", "--verify"], capsys
    )
    assert code == 0


def _c4_with_costs(tmp_path):
    # arc u->v costs 0 and v->u costs 5: both directed cycles are dec-min,
    # and only the one along the edges is cheapest
    path = tmp_path / "c4cost.g"
    path.write_text("p orient 4 4\n" + "".join(
        f"e {u} {v} 1 1 0 5\n" for u, v in ((1, 2), (2, 3), (3, 4), (4, 1))))
    return path


@pytest.mark.parametrize("family", [
    "decmin", "orient", "minT", "cheapest", "capacitated",
    "semimatch", "matroid-sum", "megiddo", "rootvec",
])
def test_verify_catches_a_wrong_answer(family, tmp_path, capsys, monkeypatch):
    from decmin import applications, engine, matroid, orientation

    c4 = tmp_path / "c4.g"
    c4.write_text("p orient 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    cases = {
        "decmin": (
            ["decmin", "--table", "r62"],
            (engine, "strongly_poly_decmin", lambda B: np.array([3, 3, 3, 0])),
            "brute force",
        ),
        "orient": (
            ["orient", "--graph", str(c4)],
            (orientation, "solve_orientation_spec",
                   lambda G, spec: orientation.orient_with_indegrees(G, [2, 0, 1, 1])),
            "the 2^m scan",
        ),
        "minT": (
            ["orient", "--graph", str(c4), "--minT", "1"],
            (orientation, "solve_orientation_spec",
                   lambda G, spec: orientation.decmin_orientation(G)),
            "the 2^m scan (T in-degree not minimum)",
        ),
        "cheapest": (
            ["orient", "--graph", str(_c4_with_costs(tmp_path)), "--cheapest"],
            (orientation, "solve_orientation_spec",
                   lambda G, spec: orientation.Orientation(G, [u for u, _ in G.edges])),
            "the 2^m scan (cost not minimum)",
        ),
        "capacitated": (
            ["orient", "--graph", "edge5", "--capacitated"],
            (orientation, "capacitated_decmin_orientation",
                   lambda G: orientation.CapacitatedOrientation(G, [5])),
            "the expanded graph",
        ),
        "semimatch": (
            ["semimatch", "--instance", "sm"],
            (applications, "decmin_semimatching",
                   lambda P: applications.SemiMatchingResult(
                       np.array([1, 0, 1]), np.array([2, 0]), np.array([1, 1]))),
            "the exhaustive subgraph scan",
        ),
        "matroid-sum": (
            ["matroid-sum", "--matroid", "tri", "--matroid", "tri"],
            (matroid, "decmin_basis_sum",
                   lambda mats, lower, upper: ([{0, 1}, {0, 1}], np.array([2, 2, 0]))),
            "the basis-tuple scan",
        ),
        "megiddo": (
            ["megiddo", "--instance", "meg"],
            (applications, "megiddo_discrete",
                   lambda P: applications.MegiddoResult(
                       np.array([1, 1, 0]), np.array([2, 0]), [0, 1])),
            "the exhaustive flow scan",
        ),
        "rootvec": (
            ["rootvec", "--digraph", "c3x2", "--k", "2"],
            (applications, "decmin_root_vector", lambda D, k: np.array([2, 0, 0])),
            "the root-vector scan",
        ),
    }
    files = {
        "r62": util.dump_table_json(util.r62_handle().oracle),
        "edge5": "p orient 2 1\ne 1 2 1 5\n",
        "sm": '{"n_left": 2, "n_right": 2, "edges": [[0,0],[1,1],[0,1]]}',
        "tri": '{"type": "graphic", "n_nodes": 3, "edges": [[0,1],[1,2],[2,0]]}',
        "meg": "p digraph 3 3\na 1 3 1\na 1 3 1\na 2 3 1\nS: 1 2\nT: 3\n",
        "c3x2": "p digraph 3 6\n" + "a 1 2\na 2 3\na 3 1\n" * 2,
    }
    # each stand-in solver returns a feasible answer that is not optimal
    args, (module, name, fake), against = cases[family]
    for j, arg in enumerate(args):
        if arg in files:
            path = tmp_path / arg
            path.write_text(files[arg])
            args[j] = str(path)
    assert run_cli(args, capsys)[0] == 0
    monkeypatch.setattr(module, name, fake)
    assert run_cli(args, capsys)[0] == 0  # unchecked, the wrong answer stands
    with pytest.raises(SystemExit) as exc:
        main(args + ["--verify"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"verification mismatch against {against}\n"
