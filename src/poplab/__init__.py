"""poplab: a laboratory for self-stabilizing population protocols on graphs.

Build a population (`graph`), run seeded trials of the ranking or
neighbor-recognition protocols under the uniformly random scheduler
(`engine`, `ranking`, `neighbor`), check results against independent oracles
(`oracles`: spec predicates, exact chain solvers, walk estimators, the
collision game), and verify self-stabilization exhaustively on small
instances (`verifier`).  See the demos/ directory of the source tree for
narrative walkthroughs, and the ``poplab`` command for the CLI.
"""

from .engine import (
    DEFAULT_CLOSURE_WINDOW,
    InteractionTrace,
    Protocol,
    ProtocolParams,
    RunResult,
    checked_step,
    default_params,
    mix_seed,
    replay,
    run_trial,
    run_until,
    sample_uniform_config,
)
from .graph import (
    GENERATOR_KINDS,
    Graph,
    GraphMetrics,
    build_graph,
    dump_edge_list,
    generate_graph,
    load_edge_list,
    metrics,
    parse_edge_list,
    save_edge_list,
)
from .neighbor import NEIGHBOR, NeighborState
from .oracles import (
    Estimate,
    SafeLevel,
    check_spec,
    classify_rank_config,
    empirical_cover_time,
    empirical_move_count_steps,
    exact_hitting_time,
    exact_meeting_time,
    game_brute_force,
    game_stable_set,
    hitting_times_to,
    neighbor_safe,
    neighbor_safe_predicate,
    rank_safe_predicate,
    safe_predicate,
)
from .ranking import BLUE, RANKING, RED, WHITE, RankState
from .verifier import (
    DEFAULT_BUDGET,
    FIXED_OUTPUT,
    GREEDY_DEGREE,
    TransitionGraph,
    Witness,
    build_transition_graph,
    final_sets,
    impossibility_witness,
    verify_self_stabilizing,
    verify_transition_graph,
)

from . import _compiled  # loaded with the package, not by the first trial (see _compiled)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
