"""Why degree recognition needs the exact pair count: a machine-found witness.

Take any protocol whose output is a degree claim and suppose it handled both
a path on three agents (m=2) and the triangle (m=3).  Pick a configuration
that is final and degree-correct on the triangle.  Every interaction sequence
of the path is also schedulable on the triangle, so replaying path
interactions from that configuration either changes some output (breaking
safety on the triangle) or leaves the path's wrong degree claims frozen
forever (breaking convergence on the path).  The search below constructs the
dilemma concretely for the greedy label-accumulation strawman.
"""

import json

import poplab as pl
from poplab.engine import ProtocolParams
from poplab.oracles import check_spec
from poplab.verifier import GREEDY_DEGREE, impossibility_witness

p3 = pl.generate_graph("path", 3)
k3 = pl.generate_graph("complete", 3)
params = ProtocolParams(n=3, tmax=1)

witness = impossibility_witness(GREEDY_DEGREE, p3, k3, params)
outputs = [GREEDY_DEGREE.output(s) for s in witness.start]

print(f"start configuration (final on the triangle): outputs {outputs}")
print(f"degree-correct on the triangle: {check_spec('degree', outputs, k3)}")
print(f"degree-correct on the path:     {check_spec('degree', outputs, p3)}")
print(f"\nwitness kind: {witness.kind}")
if witness.kind == "frozen_output":
    print(f"no path interaction sequence can change any output, yet agent "
          f"{witness.agent} claims degree {witness.before} while its path "
          f"degree is {p3.degree(witness.agent)}.")
else:
    print(f"replaying {len(witness.pairs)} path interactions changes agent "
          f"{witness.agent}'s claim {witness.before} -> {witness.after}, "
          f"contradicting safety on the triangle.")

end = pl.replay(GREEDY_DEGREE, p3, witness.start, witness.pairs, params)
print(f"replay check: outputs after the sequence = "
      f"{[GREEDY_DEGREE.output(s) for s in end]}")
print("\nwitness as JSON:")
print(json.dumps(witness.to_json(GREEDY_DEGREE), indent=2))
