"""Command-line behavior: parsing, outputs, exit codes, reproducibility."""

import json
import pathlib
import random

import pytest

from tanglekit import cli, connectivity
from tanglekit.cli import main, parse_instance

from conftest import TRIFORCE_EDGES

TRIFORCE_FILE = "graph 7 9\n" + "\n".join(f"{u} {v}" for u, v in TRIFORCE_EDGES) + "\n"
P3_FILE = "graph 3 2\n0 1\n1 2\n"
MATRIX_FILE = "matrix 2 4\n1011\n0111\n"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture()
def triforce_path(tmp_path):
    path = tmp_path / "triforce.txt"
    path.write_text(TRIFORCE_FILE)
    return str(path)


@pytest.fixture()
def p3_path(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_FILE)
    return str(path)


def test_parse_graph(triforce_path):
    oracle = parse_instance(triforce_path, "edge-boundary")
    assert oracle.ground.n == 9
    assert oracle.ground.labels[0] == "0-1"


def test_parse_matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX_FILE)
    oracle = parse_instance(str(path), "matroid")
    assert oracle.ground.n == 4
    assert oracle.evaluate(0) == 0


def test_matrix_takes_only_the_matroid_function(tmp_path, capsys):
    """Without --fn a matrix file gets the matroid function; an explicit
    graph function is refused, not silently replaced."""
    path = tmp_path / "m.txt"
    path.write_text(MATRIX_FILE)
    assert main(["tangles", "--order", "1", str(path)]) == 0
    capsys.readouterr()
    for fn in ("edge-boundary", "vertex-cut", "cut-rank"):
        assert main(["tangles", "--order", "1", "--fn", fn, str(path)]) == 3, fn
        assert f"--fn {fn} does not apply to matrix instances" in capsys.readouterr().err


def test_parse_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["tangles", "--order", "0", str(empty)]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 3 1\n0 9\n")
    assert main(["tangles", "--order", "0", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err


def test_parse_rejects_oversized(tmp_path):
    lines = ["graph 70 69"] + [f"{i} {i + 1}" for i in range(69)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["tangles", "--order", "0", str(path)]) == 4


def test_tangles_command(triforce_path, capsys):
    assert main(["tangles", "--order", "2", triforce_path]) == 0
    out = capsys.readouterr().out
    assert "order 2: 3 tangle(s)" in out
    assert "total (size(2)): 5" in out


def test_tangles_order_zero(p3_path, capsys):
    assert main(["tangles", "--order", "0", p3_path]) == 0
    out = capsys.readouterr().out
    assert "order 0: 1 tangle(s)" in out


def test_branchwidth_command(p3_path, capsys):
    assert main(["branchwidth", "--brute", p3_path]) == 0
    out = capsys.readouterr().out
    assert "branch width (max tangle order): 1" in out
    assert "brute-force branch width: 1" in out


def test_decompose_verify_round_trip(triforce_path, tmp_path, capsys):
    assert main(["decompose", "--order", "2", triforce_path]) == 0
    doc_text = capsys.readouterr().out
    doc = json.loads(doc_text)
    assert doc["kind"] == "tree"
    bags = sorted(tuple(n["bag"]) for n in doc["nodes"])
    assert bags[0] == ()
    assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 3
    path = tmp_path / "dec.json"
    path.write_text(doc_text)
    assert main(["verify", str(path), triforce_path]) == 0
    assert "all conditions hold" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose"],
        ["decompose", "--refined"],
        ["directed", "--root-index", "3"],
    ],
    ids=["decompose", "refined", "directed"],
)
def test_verify_flags_tampering(argv, triforce_path, tmp_path, capsys):
    assert main(argv + ["--order", "2", triforce_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["nodes"][0]["bag"] = [0]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), triforce_path]) == 2
    assert "does not match" in capsys.readouterr().out


def test_directed_command(triforce_path, tmp_path, capsys):
    assert main(["directed", "--order", "2", "--root-index", "3", triforce_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "directed"
    root = next(n for n in doc["nodes"] if n["id"] == doc["root"])
    assert len(root["cone"]) == 9
    path = tmp_path / "dir.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert main(["verify", str(path), triforce_path]) == 0


def test_refined_command(triforce_path, tmp_path, capsys):
    assert main(["decompose", "--order", "2", "--refined", triforce_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("refined") is True
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert main(["verify", str(path), triforce_path]) == 0


def test_dot_export(triforce_path, tmp_path, capsys):
    dot = tmp_path / "dec.dot"
    assert main(["decompose", "--order", "2", "--dot", str(dot), triforce_path]) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.startswith("graph decomposition {")
    assert text.count("--") == 3


def test_selfcheck(p3_path, capsys):
    assert main(["selfcheck", "--trials", "2", p3_path]) == 0
    out = capsys.readouterr().out
    assert "axioms: ok" in out
    assert "branch width duality: ok" in out


def test_golden_decompose_bytes(triforce_path, capsys):
    """The decomposition JSON is byte-stable across runs."""
    assert main(["decompose", "--order", "2", triforce_path]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", "--order", "2", triforce_path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_stats_reproducible(triforce_path, capsys):
    assert main(["tangles", "--order", "2", "--stats", triforce_path]) == 0
    first = capsys.readouterr().out
    assert main(["tangles", "--order", "2", "--stats", triforce_path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "stats: oracle calls = " in first


# Two 5-cycles joined by an edge (cut-rank, 10 vertices) and the
# vertex-edge incidence matrix of K4 (matroid, 6 columns).
C5C5_FILE = "graph 10 11\n0 1\n1 2\n2 3\n3 4\n0 4\n5 6\n6 7\n7 8\n8 9\n5 9\n0 5\n"
MK4_FILE = "matrix 4 6\n111000\n100110\n010101\n001011\n"


@pytest.mark.parametrize(
    "content, fn, n",
    [(C5C5_FILE, ["--fn", "cut-rank"], 10), (MK4_FILE, [], 6)],
    ids=["cut-rank", "matroid"],
)
def test_gf2_stats_count_every_subset_once(tmp_path, capsys, content, fn, n):
    """The first box scan reads kappa on every subset, each counted once."""
    path = tmp_path / "instance.txt"
    path.write_text(content)
    for command in ("tangles", "decompose"):
        assert main([command, "--order", "2", "--stats"] + fn + [str(path)]) == 0
        stats = [line for line in capsys.readouterr().out.splitlines() if line.startswith("stats:")]
        assert stats == [f"stats: oracle calls = {2 ** n}"], command


def test_wide_matrix_refused_without_a_table(tmp_path, monkeypatch, capsys):
    """23 columns exceed the scan guard: the refusal comes before any table."""

    def no_table(groups):
        raise AssertionError("a GF(2) rank table was filled")

    monkeypatch.setattr(connectivity, "gf2_rank_table", no_table)
    rng = random.Random(23)
    rows = ["".join(rng.choice("01") for _ in range(23)) for _ in range(6)]
    path = tmp_path / "wide.txt"
    path.write_text("matrix 6 23\n" + "\n".join(rows) + "\n")
    assert main(["tangles", "--order", "2", str(path)]) == 4
    assert "size guard" in capsys.readouterr().err


def test_matrix_instance_flow(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX_FILE)
    assert main(["branchwidth", "--brute", str(path)]) == 0
    out = capsys.readouterr().out
    assert "branch width" in out


def test_env_var_size_guard(p3_path, monkeypatch, capsys):
    monkeypatch.setenv("TANGLEKIT_MAX_EXHAUSTIVE", "7")
    assert main(["branchwidth", "--brute", p3_path]) == 0
    out = capsys.readouterr().out
    assert "brute-force branch width: 1" in out


def test_zero_size_guard_is_not_the_default(p3_path, capsys):
    assert main(["branchwidth", "--brute", "--max-exhaustive", "0", p3_path]) == 4
    assert "size guard" in capsys.readouterr().err


def test_env_var_size_guard_not_an_integer(p3_path, monkeypatch, capsys):
    monkeypatch.setenv("TANGLEKIT_MAX_EXHAUSTIVE", "abc")
    assert main(["tangles", "--order", "1", p3_path]) == 3
    assert "TANGLEKIT_MAX_EXHAUSTIVE" in capsys.readouterr().err


def test_env_var_size_guard_read_on_every_call(p3_path, monkeypatch, capsys):
    """One process builds one parser, and each call honours the
    environment it runs in; an explicit --max-exhaustive wins."""
    monkeypatch.setenv("TANGLEKIT_MAX_EXHAUSTIVE", "7")
    assert main(["branchwidth", "--brute", p3_path]) == 0
    assert "brute-force branch width: 1" in capsys.readouterr().out
    monkeypatch.setenv("TANGLEKIT_MAX_EXHAUSTIVE", "0")
    assert main(["branchwidth", "--brute", p3_path]) == 4
    assert "size guard" in capsys.readouterr().err
    assert main(["branchwidth", "--brute", "--max-exhaustive", "7", p3_path]) == 0
    assert "brute-force branch width: 1" in capsys.readouterr().out
    monkeypatch.setenv("TANGLEKIT_MAX_EXHAUSTIVE", "abc")
    assert main(["tangles", "--order", "1", p3_path]) == 3
    assert "TANGLEKIT_MAX_EXHAUSTIVE" in capsys.readouterr().err
    assert cli._parser.cache_info().misses == 1


def test_decompose_rejects_negative_order(triforce_path, capsys):
    assert main(["decompose", "--order", "-1", triforce_path]) == 3
    assert main(["decompose", "--refined", "--order", "-1", triforce_path]) == 3
    assert "nonnegative" in capsys.readouterr().err


def test_tangles_and_directed_reject_negative_order(triforce_path, capsys):
    assert main(["tangles", "--order", "-1", triforce_path]) == 3
    assert "error: tangle orders are nonnegative, got -1" in capsys.readouterr().err
    assert main(["directed", "--order", "-1", "--root-index", "1", triforce_path]) == 3
    assert "error: tangle orders are nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["directed", "--root-index", "3"], "triforce_directed_root3.json"),
        (["directed", "--root-index", "4"], "triforce_directed_root4.json"),
        (["directed", "--root-index", "5"], "triforce_directed_root5.json"),
        (["decompose", "--refined"], "triforce_decompose_refined.json"),
    ],
)
def test_golden_triforce_documents(triforce_path, capsys, argv, golden):
    """The triforce's directed and refined documents are pinned byte for byte."""
    assert main(argv + ["--order", "2", triforce_path]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()


def test_verify_rejects_malformed_documents(triforce_path, tmp_path, capsys):
    cases = {
        "not-json.json": "graph 7 9\n",
        "no-order.json": json.dumps({"format": "tanglekit-decomposition"}),
        "list.json": "[]",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["verify", str(path), triforce_path]) == 3, name
        assert "parse error" in capsys.readouterr().err, name


def test_round_trip_all_fixtures(tmp_path, capsys):
    """Emitted decompositions verify with zero violations on every fixture."""
    from conftest import grid3_graph

    k4_file = "graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    grid = grid3_graph()
    grid_file = f"graph {grid.n} {grid.m}\n" + "\n".join(f"{u} {v}" for u, v in grid.edges) + "\n"
    c5_file = "graph 5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    cases = [
        ("triforce.txt", TRIFORCE_FILE, "edge-boundary", "2"),
        ("k4.txt", k4_file, "edge-boundary", "3"),
        ("grid3.txt", grid_file, "edge-boundary", "2"),
        ("c5.txt", c5_file, "cut-rank", "2"),
    ]
    for name, content, fn, order in cases:
        instance = tmp_path / name
        instance.write_text(content)
        assert main(["decompose", "--order", order, "--fn", fn, str(instance)]) == 0
        doc_text = capsys.readouterr().out
        dec = tmp_path / (name + ".json")
        dec.write_text(doc_text)
        assert main(["verify", "--fn", fn, str(dec), str(instance)]) == 0, name
        out = capsys.readouterr().out
        assert "all conditions hold" in out, name
