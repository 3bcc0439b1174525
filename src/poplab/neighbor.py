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

The module's functions make up ``NEIGHBOR``, the protocol's one
``engine.Protocol`` record, whose state functions ``engine.state_codec``
derives from ``FIELDS``; ``step`` is unchecked (validate states with
``engine.checked_step``).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import ranking
from .engine import Field, Protocol, state_codec
from .errors import MissingKnowledge
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


def validate_params(params) -> None:
    ranking.validate_params(params)
    if params.m_known is None:
        raise MissingKnowledge("neighbor recognition requires exact knowledge of m")


def step(a0: NeighborState, a1: NeighborState, params) -> tuple[NeighborState, NeighborState]:
    """One interaction without domain checks; a0 initiates, a1 responds."""
    pmax = params.pmax
    emax = params.emax
    cap = 2 * params.m_known + 1

    r0, r1 = ranking.step(a0.rank, a1.rank, params)

    # The degree payload travels with the physical token, renamed or not.
    deg0, deg1 = a1.degreeT, a0.degreeT

    # Error-signal propagation: both agents adopt max(0, resetE - 1) of the
    # larger side, and a live signal wipes both neighbor sets before this
    # step's partner labels are recorded.
    shared = a0.resetE if a0.resetE >= a1.resetE else a1.resetE
    shared = shared - 1 if shared > 0 else 0
    nb0, nb1 = a0.neighbors, a1.neighbors
    if shared > 0:
        nb0 = nb1 = 0

    # Initiator body.
    p0 = a0.timerP - 1 if a0.timerP > 0 else 0
    dsum0 = a0.dsum
    counted0 = a0.counted
    if p0 == 0:
        dsum0 = 0
        counted0 = 0
        p0 = pmax
    nb0 |= 1 << r1.idA
    if r0.idA == r0.idT:
        deg0 = nb0.bit_count()
    if not (counted0 >> r0.idT) & 1:
        dsum0 = dsum0 + deg0
        if dsum0 > cap:
            dsum0 = cap
        counted0 |= 1 << r0.idT
    reset0 = emax if dsum0 == cap else shared

    # Responder body, same lines.
    p1 = a1.timerP - 1 if a1.timerP > 0 else 0
    dsum1 = a1.dsum
    counted1 = a1.counted
    if p1 == 0:
        dsum1 = 0
        counted1 = 0
        p1 = pmax
    nb1 |= 1 << r0.idA
    if r1.idA == r1.idT:
        deg1 = nb1.bit_count()
    if not (counted1 >> r1.idT) & 1:
        dsum1 = dsum1 + deg1
        if dsum1 > cap:
            dsum1 = cap
        counted1 |= 1 << r1.idT
    reset1 = emax if dsum1 == cap else shared

    return (
        NeighborState(r0, deg0, dsum0, reset0, p0, nb0, counted0),
        NeighborState(r1, deg1, dsum1, reset1, p1, nb1, counted1),
    )


def output(s: NeighborState):
    """(label, neighbor-label bitmask); degree recognition reads the popcount."""
    return (s.rank.idA, s.neighbors)


def output_labels(s: NeighborState) -> tuple[int, frozenset[int]]:
    """Human-friendly output: (label, frozenset of neighbor labels)."""
    return (s.rank.idA, frozenset(bits(s.neighbors)))


def degree_output(s: NeighborState) -> int:
    return s.neighbors.bit_count()


def to_json(s: NeighborState) -> dict:
    obj = ranking.to_json(s.rank)
    obj.update(
        degreeT=s.degreeT,
        dsum=s.dsum,
        resetE=s.resetE,
        timerP=s.timerP,
        neighbors=sorted(bits(s.neighbors)),
        counted=sorted(bits(s.counted)),
    )
    return obj


def from_json(obj: dict) -> NeighborState:
    return NeighborState(
        rank=ranking.from_json(obj),
        degreeT=int(obj["degreeT"]),
        dsum=int(obj["dsum"]),
        resetE=int(obj["resetE"]),
        timerP=int(obj["timerP"]),
        neighbors=mask_of(obj["neighbors"]),
        counted=mask_of(obj["counted"]),
    )


FIELDS = ranking.FIELDS + (
    Field("degreeT", 0, lambda params: params.n + 1),
    Field("dsum", 0, lambda params: 2 * params.m_known + 2),
    Field("resetE", 0, lambda params: params.emax + 1),
    Field("timerP", 0, lambda params: params.pmax + 1),
    Field("neighbors", 0, lambda params: 1 << params.n),
    Field("counted", 0, lambda params: 1 << params.n),
)
"""The state's fields in index order: the rank part's, then the rest as declared."""
_RANK_FIELDS = len(ranking.FIELDS)


def flatten(s: NeighborState) -> tuple:
    """The field values in FIELDS order."""
    return (*s.rank, *s[1:])


def unflatten(values) -> NeighborState:
    return NeighborState(RankState._make(values[:_RANK_FIELDS]), *values[_RANK_FIELDS:])


NEIGHBOR = Protocol(
    name="neighbor",
    validate_params=validate_params,
    **state_codec(FIELDS, flatten, unflatten, validate_params),
    step=step,
    output=output,
    to_json=to_json,
)
