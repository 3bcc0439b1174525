"""verifier.final_sets agrees with networkx's attracting components.

The verify-exhaustive workload trusts final_sets; this cross-checks it against
an implementation that shares no code with it.  The path:3 case enumerates
1,259,712 configurations and takes about 40 s and 2.7 GB of memory, so it
runs here, once, and not in every benchmark run.
"""

import networkx as nx
import pytest

from poplab.engine import ProtocolParams
from poplab.graph import generate_graph
from poplab.ranking import RANKING
from poplab.verifier import build_transition_graph, final_sets


@pytest.mark.parametrize("kind, n, tmax", [("complete", 2, 1), ("complete", 2, 2), ("path", 3, 1)])
def test_final_sets_match_attracting_components(kind, n, tmax):
    tg = build_transition_graph(RANKING, generate_graph(kind, n), ProtocolParams(n=n, tmax=tmax))
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(tg.config_count))
    for succ in tg.successors:
        digraph.add_edges_from(enumerate(succ.tolist()))
    expected = sorted(sorted(c) for c in nx.attracting_components(digraph))
    del digraph
    got = sorted(sorted(f) for f in final_sets(tg))
    assert len(got) == len(expected)
    assert sum(map(len, got)) == sum(map(len, expected))
    assert got == expected
