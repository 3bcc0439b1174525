"""Model-check self-stabilization instead of sampling it.

On tiny populations every configuration can be accounted for, so the
random scheduler can be dropped entirely: a protocol is self-stabilizing
exactly when every bottom strongly connected component of the one-step
transition relation contains only safe configurations with frozen outputs.
The checker never stores the whole configuration space: it maps arrays of
configurations through per-pair tables and searches a small region that
holds every such component.
The recoloring timer only affects speed, so the check runs at tmax=1.
"""

import time

import poplab as pl
from poplab.engine import ProtocolParams
from poplab.oracles import safe_predicate
from poplab.verifier import GREEDY_DEGREE

for kind, n in [("complete", 2), ("complete", 3), ("path", 3)]:
    g = pl.generate_graph(kind, n)
    params = ProtocolParams(n=n, tmax=1)
    t0 = time.monotonic()
    tg = pl.build_transition_graph(pl.RANKING, g, params)
    fsets = pl.final_sets(tg)
    verdict = pl.verify_transition_graph(tg, fsets, safe_predicate(pl.RANKING, g, params))
    dt = time.monotonic() - t0
    print(f"{kind}:{n}: {tg.config_count:>9,} configurations, "
          f"{len(fsets)} final sets ({sum(map(len, fsets))} configurations), "
          f"self-stabilizing={verdict is True}  [{dt:.1f}s]")

# A broken protocol for contrast: greedy label accumulation with fixed
# labels claims degree = set size, and the verifier hands back a witness.
g = pl.generate_graph("path", 3)
params = ProtocolParams(n=3, tmax=1)
verdict = pl.verify_self_stabilizing(GREEDY_DEGREE, g, params, safe_predicate(GREEDY_DEGREE, g, params))
print(f"\ngreedydegree on path:3 verifies: {verdict is True}")
print(f"witness kind: {verdict.kind}")
print(f"witness start outputs: {[GREEDY_DEGREE.output(s) for s in verdict.start]} "
      f"vs true degrees {[g.degree(v) for v in range(3)]}")
