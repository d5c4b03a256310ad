"""decmin.brute stays apart from the solvers: only the CLI imports it, and
``import decmin`` followed by solves does not load it."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "decmin"


def _imports_brute(tree) -> bool:
    """Whether any import in tree names decmin.brute, relative ones read
    as imports inside the decmin package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["decmin" if node.level else "", node.module]))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if "decmin.brute" in names:
            return True
    return False


def test_only_the_cli_imports_brute():
    importers = sorted(
        path.stem for path in SRC.glob("*.py")
        if _imports_brute(ast.parse(path.read_text(), str(path)))
    )
    assert importers == ["cli"]


def test_the_check_sees_every_import_form():
    for text in ("from . import brute", "from .brute import points",
                 "from decmin import brute", "from decmin.brute import points",
                 "import decmin.brute", "from . import core, brute"):
        assert _imports_brute(ast.parse(text)), text
    for text in ("from . import core", "from .core import brute_force", "import brute"):
        assert not _imports_brute(ast.parse(text)), text


def test_solves_do_not_load_brute():
    code = (
        "import sys, decmin\n"
        "from decmin import engine, orientation\n"
        "G = orientation.Graph(3, [(0, 1), (1, 2), (2, 0)])\n"
        "assert orientation.decmin_orientation(G).indeg.tolist() == [1, 1, 1]\n"
        "B = decmin.BaseHandle(decmin.TableOracle([0, 0, 0, 2, 0, 1, 1, 4]))\n"
        "assert engine.strongly_poly_decmin(B).tolist() == [1, 1, 2]\n"
        "assert 'decmin.brute' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr


def test_flows_conserve_at_the_inner_nodes():
    # node 1 neither sends nor receives: the arc 0->1 carries nothing, and
    # 0->1->2 carries one unit or none
    from decmin import brute
    from decmin.netflow import Digraph

    z, psi = brute.flows(Digraph(3, [(0, 1)], [1]), {0}, {2})
    assert z.tolist() == [[0]] and psi.tolist() == [[0, 0, 0]]
    z, psi = brute.flows(Digraph(3, [(0, 1), (1, 2)], [1, 1]), {0}, {2})
    assert z.tolist() == [[0, 0], [1, 1]] and psi.tolist() == [[0, 0, 0], [-1, 0, 1]]
