"""Self-stabilizing neighbor recognition (exact n and m known).

Runs the ranking protocol underneath, so agents converge to distinct labels
and every token keeps random-walking.  On top of it each agent v accumulates
the labels of its interaction partners in ``neighbors``.  Arbitrary initial
memory may seed ``neighbors`` with *fake* labels (labels of non-neighbors),
which no local rule can spot, so the protocol audits globally: each token
carries the current neighbor-set size of its home agent (``degreeT``), every
agent keeps a running sum ``dsum`` of the distinct token payloads it has seen
since its periodic reset, and a sum exceeding 2m is proof that someone holds
a fake label.  The detecting agent raises ``resetE`` to its ceiling; the
signal floods the population by max-minus-one propagation and every signaled
agent clears its neighbor set, after which the accumulation restarts clean.

Neighbor and counted sets are stored as bitmasks over labels 0..n-1, so the
state index of ``FIELDS`` realizes the O(n)-bits-per-agent memory claim: the
two sets take 2n bits of it and every other field a logarithmic number.

The module's field table ``FIELDS`` and functions make up ``NEIGHBOR``, the
protocol's one ``engine.Protocol`` record, which declares that it needs
exact knowledge of m and derives its state functions, JSON included, from
the table; ``step`` is unchecked (validate states with
``engine.checked_step``).  ``_audit`` is the Python twin of ``_loop.c``'s
``audit``: ``step`` runs ``ranking.step`` and the signal, then applies it to
each agent.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import ranking
from .engine import Field, Protocol
from .ranking import RankState


class NeighborState(NamedTuple):
    rank: RankState
    degreeT: int    # neighbor-count payload riding on the hosted token, 0..n
    dsum: int       # audited sum of distinct token payloads, 0..2m+1
    resetE: int     # error-signal hop budget, 0..emax
    timerP: int     # audit-reset countdown, 0..pmax
    neighbors: int  # bitmask of partner labels seen since the last reset
    counted: int    # bitmask of token labels already added into dsum


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(labels) -> int:
    out = 0
    for x in labels:
        out |= 1 << x
    return out


def _audit(a: NeighborState, r: RankState, partner_idA: int, deg: int, nb: int, shared: int,
           params) -> NeighborState:
    """The neighbor body of agent a after its rank part has stepped to r: deg
    is the payload of the token it now hosts, nb its neighbor set after the signal."""
    cap = 2 * params.m_known + 1
    p = a.timerP - 1 if a.timerP > 0 else 0
    dsum, counted = a.dsum, a.counted
    if p == 0:
        dsum = 0
        counted = 0
        p = params.pmax
    nb |= 1 << partner_idA
    if r.idA == r.idT:
        deg = nb.bit_count()
    if not (counted >> r.idT) & 1:
        dsum += deg
        if dsum > cap:
            dsum = cap
        counted |= 1 << r.idT
    reset = params.emax if dsum == cap else shared
    return NeighborState(r, deg, dsum, reset, p, nb, counted)


def step(a0: NeighborState, a1: NeighborState, params) -> tuple[NeighborState, NeighborState]:
    """One interaction without domain checks; a0 initiates, a1 responds."""
    r0, r1 = ranking.step(a0.rank, a1.rank, params)

    # Error-signal propagation: both agents adopt max(0, resetE - 1) of the
    # larger side, and a live signal wipes both neighbor sets before this
    # step's partner labels are recorded.
    shared = a0.resetE if a0.resetE >= a1.resetE else a1.resetE
    shared = shared - 1 if shared > 0 else 0
    nb0, nb1 = a0.neighbors, a1.neighbors
    if shared > 0:
        nb0 = nb1 = 0

    # The degree payload travels with the physical token, renamed or not.
    return (
        _audit(a0, r0, r1.idA, a1.degreeT, nb0, shared, params),
        _audit(a1, r1, r0.idA, a0.degreeT, nb1, shared, params),
    )


def output(s: NeighborState):
    """(label, neighbor-label bitmask); degree recognition reads the popcount."""
    return (s.rank.idA, s.neighbors)


def output_labels(s: NeighborState) -> tuple[int, frozenset[int]]:
    """Human-friendly output: (label, frozenset of neighbor labels)."""
    return (s.rank.idA, frozenset(bits(s.neighbors)))


def degree_output(s: NeighborState) -> int:
    return s.neighbors.bit_count()


FIELDS = ranking.FIELDS + (
    Field("degreeT", 0, lambda params: params.n + 1),
    Field("dsum", 0, lambda params: 2 * params.m_known + 2),
    Field("resetE", 0, lambda params: params.emax + 1),
    Field("timerP", 0, lambda params: params.pmax + 1),
    Field("neighbors", 0, lambda params: 1 << params.n, lambda mask: list(bits(mask))),
    Field("counted", 0, lambda params: 1 << params.n, lambda mask: list(bits(mask))),
)
"""The state's fields in index order: the rank part's, then the rest; sets render as label lists."""
_RANK_FIELDS = len(ranking.FIELDS)


def flatten(s: NeighborState) -> tuple:
    """The field values in FIELDS order."""
    return (*s.rank, *s[1:])


def unflatten(values) -> NeighborState:
    return NeighborState(RankState._make(values[:_RANK_FIELDS]), *values[_RANK_FIELDS:])


NEIGHBOR = Protocol(
    name="neighbor",
    fields=FIELDS,
    flatten=flatten,
    unflatten=unflatten,
    step=step,
    output=output,
    needs_m=True,
)
