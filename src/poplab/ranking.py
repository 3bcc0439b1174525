"""Self-stabilizing ranking protocol (exact agent count known).

Every agent stores a label ``idA`` (its output) and hosts exactly one token,
described by ``idT``/``colorT``/``timerT``.  Tokens are swapped on every
interaction, so each token performs a random walk over the population.  Two
mechanisms drive the system to distinct labels 0..n-1:

* token collisions: when the two swapped tokens carry the same label, the
  responder's token advances to the next label mod n, so token labels
  eventually become a permutation;
* color auditing: the token whose label matches an agent's label acts as that
  label's auditor.  An agent synchronizes its color with the auditor token,
  and the pair flips color together whenever the token's timer runs out.  An
  agent that meets its auditor while holding the *wrong* non-white color has
  proof that some other agent shares its label, so it moves on to the next
  label (turning white until it can resynchronize).

``timerT`` only paces the recoloring: the protocol is also correct with a
tiny ``tmax``, just slower, which the model checker exploits.

The module's field table ``FIELDS`` and functions make up ``RANKING``, the
protocol's one ``engine.Protocol`` record, which derives its state
functions from the table; ``step`` is unchecked (validate states with
``engine.checked_step``).  ``_host`` is the Python twin of
``_loop.c``'s ``host``: ``step`` swaps the tokens and applies it to each agent.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import Field, Protocol

WHITE, RED, BLUE = 0, 1, 2
COLOR_NAMES = {WHITE: "white", RED: "red", BLUE: "blue"}
COLOR_CODES = {name: code for code, name in COLOR_NAMES.items()}


class RankState(NamedTuple):
    idA: int     # agent label, the protocol output
    idT: int     # label of the token this agent currently hosts
    colorA: int  # agent color: WHITE, RED or BLUE
    colorT: int  # token color: RED or BLUE
    timerT: int  # token recoloring timer, 0..tmax


def _host(a: RankState, idT: int, cT: int, tT: int, n: int, tmax: int) -> RankState:
    """The agent side of a step: agent a now hosts the token (idT, cT, tT)."""
    idA, cA = a.idA, a.colorA
    if idA == idT:
        if cA == WHITE:
            cA = cT
        if cA != cT:
            # Stale color: some other agent owns this label.  Move on, white.
            idA += 1
            if idA == n:
                idA = 0
            cA = WHITE
        elif tT == 0:
            # Periodic recoloring: agent and auditor token flip together.
            tT = tmax
            cA = cT = BLUE if cA == RED else RED
    return RankState(idA, idT, cA, cT, tT)


def step(a0: RankState, a1: RankState, params) -> tuple[RankState, RankState]:
    """One interaction without domain checks; a0 initiates, a1 responds."""
    n = params.n

    # Swap the token triples: the random walk itself.
    idT0, cT0, tT0 = a1.idT, a1.colorT, a1.timerT
    idT1, cT1, tT1 = a0.idT, a0.colorT, a0.timerT

    # Token collision: the responder's token moves on to the next label.
    if idT0 == idT1:
        idT1 += 1
        if idT1 == n:
            idT1 = 0

    # Timers tick down on every move, stopping at zero.
    if tT0 > 0:
        tT0 -= 1
    if tT1 > 0:
        tT1 -= 1

    return (
        _host(a0, idT0, cT0, tT0, n, params.tmax),
        _host(a1, idT1, cT1, tT1, n, params.tmax),
    )


def output(s: RankState) -> int:
    """The agent's rank claim: its label."""
    return s.idA


def leader_output(s: RankState) -> str:
    """Leader-election view of a ranking: label 0 leads, everyone else follows."""
    return "L" if s.idA == 0 else "F"


def to_json(s: RankState) -> dict:
    return {
        "idA": s.idA,
        "idT": s.idT,
        "colorA": COLOR_NAMES[s.colorA],
        "colorT": COLOR_NAMES[s.colorT],
        "timerT": s.timerT,
    }


def from_json(obj: dict) -> RankState:
    return RankState(
        idA=int(obj["idA"]),
        idT=int(obj["idT"]),
        colorA=COLOR_CODES[obj["colorA"]],
        colorT=COLOR_CODES[obj["colorT"]],
        timerT=int(obj["timerT"]),
    )


FIELDS = (
    Field("idA", 0, lambda params: params.n),
    Field("idT", 0, lambda params: params.n),
    Field("colorA", WHITE, lambda params: 3),
    Field("colorT", RED, lambda params: 2),
    Field("timerT", 0, lambda params: params.tmax + 1),
)
"""The state's fields in index order, idA most significant."""


flatten = tuple  # a RankState holds its field values in FIELDS order
unflatten = RankState._make


RANKING = Protocol(
    name="ranking",
    fields=FIELDS,
    flatten=flatten,
    unflatten=unflatten,
    step=step,
    output=output,
    to_json=to_json,
)
