"""The README's library tour runs as written and gives the values it states."""

import ast
import pathlib

import tanglekit
from tanglekit.decomposition import verify_directed_decomposition

README = pathlib.Path(__file__).parent.parent / "README.md"


def _run_tour():
    """Run the tour's statements in order; return their namespace and the
    value of each expression statement."""
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return namespace, values


def test_library_tour():
    namespace, values = _run_tour()
    axioms_ok, order, size, member, separation, found, ttd_ok = values
    assert axioms_ok is True
    assert order == 2
    assert size == 5
    assert member is True
    assert separation == 0b1000011  # the triangle on vertices 0, 1, 2
    assert found == 3
    assert ttd_ok is True

    ttd = namespace["ttd"]
    td = ttd.td
    hubs = [t for t in td.nodes() if not td.bags[t]]
    assert len(td.nodes()) == 4 and len(hubs) == 1
    hub = hubs[0]
    assert sorted(td.adj[hub]) == sorted(t for t in td.nodes() if t != hub)
    assert sorted(ttd.tau) == [3, 4, 5] and hub not in ttd.tau.values()
    assert tanglekit.verify_tangle_decomposition(ttd).ok
    assert verify_directed_decomposition(namespace["dtd"]).ok
