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

Neighbor and counted sets are stored as bitmasks over labels 0..n-1, which
also realizes the O(n)-bits-per-agent memory claim (see ``packed_bit_length``).

The module's functions make up ``NEIGHBOR``, the protocol's one
``engine.Protocol`` record; ``step`` is unchecked (validate states with
``engine.checked_step``).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import ranking
from .engine import Protocol
from .errors import DomainViolation, MissingKnowledge
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


def random_mask(rng, n: int) -> int:
    """Uniform n-bit mask, drawn as words of at most 64 bits, lowest word first.

    For n <= 63 the one uint64 draw returns the value of, and advances the
    generator exactly as, ``rng.integers(0, 1 << n)``, whose int64 bound
    overflows from n = 64 on; each further 64 bits take one more word.
    """
    out = 0
    for shift in range(0, n, 64):
        width = min(64, n - shift)
        out |= int(rng.integers(0, 1 << width, dtype=np.uint64)) << shift
    return out


def validate_params(params) -> None:
    ranking.validate_params(params)
    if params.m_known is None:
        raise MissingKnowledge("neighbor recognition requires exact knowledge of m")


def validate_state(s: NeighborState, params) -> None:
    if params.m_known is None:
        raise MissingKnowledge("neighbor recognition requires exact knowledge of m")
    ranking.validate_state(s.rank, params)
    n, m = params.n, params.m_known
    if not (0 <= s.degreeT <= n):
        raise DomainViolation(f"degreeT out of 0..{n} in {s}")
    if not (0 <= s.dsum <= 2 * m + 1):
        raise DomainViolation(f"dsum out of 0..{2 * m + 1} in {s}")
    if not (0 <= s.resetE <= params.emax):
        raise DomainViolation(f"resetE out of 0..{params.emax} in {s}")
    if not (0 <= s.timerP <= params.pmax):
        raise DomainViolation(f"timerP out of 0..{params.pmax} in {s}")
    if not (0 <= s.neighbors < (1 << n) and 0 <= s.counted < (1 << n)):
        raise DomainViolation(f"label set out of range in {s}")


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


def _field_widths(params) -> tuple[tuple[str, int], ...]:
    n, m = params.n, params.m_known
    return (
        ("idA", (n - 1).bit_length()),
        ("idT", (n - 1).bit_length()),
        ("colorA", 2),
        ("colorT", 1),
        ("timerT", params.tmax.bit_length()),
        ("degreeT", n.bit_length()),
        ("dsum", (2 * m + 1).bit_length()),
        ("resetE", params.emax.bit_length()),
        ("timerP", params.pmax.bit_length()),
        ("neighbors", n),
        ("counted", n),
    )


def packed_bit_length(params) -> int:
    """Bits of one agent's packed state: 2n for the label sets plus O(log) rest."""
    if params.m_known is None:
        raise MissingKnowledge("neighbor recognition requires exact knowledge of m")
    return sum(width for _, width in _field_widths(params))


def pack_state(s: NeighborState, params) -> int:
    """Pack a state into packed_bit_length(params) bits (field order as declared)."""
    validate_state(s, params)
    values = {
        "idA": s.rank.idA,
        "idT": s.rank.idT,
        "colorA": s.rank.colorA,
        "colorT": s.rank.colorT - ranking.RED,
        "timerT": s.rank.timerT,
        "degreeT": s.degreeT,
        "dsum": s.dsum,
        "resetE": s.resetE,
        "timerP": s.timerP,
        "neighbors": s.neighbors,
        "counted": s.counted,
    }
    out = 0
    for name, width in _field_widths(params):
        out = (out << width) | values[name]
    return out


def unpack_state(packed: int, params) -> NeighborState:
    values = {}
    for name, width in reversed(_field_widths(params)):
        values[name] = packed & ((1 << width) - 1)
        packed >>= width
    return NeighborState(
        rank=RankState(
            values["idA"], values["idT"], values["colorA"],
            values["colorT"] + ranking.RED, values["timerT"],
        ),
        degreeT=values["degreeT"],
        dsum=values["dsum"],
        resetE=values["resetE"],
        timerP=values["timerP"],
        neighbors=values["neighbors"],
        counted=values["counted"],
    )


def state_count(params) -> int:
    validate_params(params)
    n, m = params.n, params.m_known
    return (
        ranking.state_count(params)
        * (n + 1) * (2 * m + 2) * (params.emax + 1) * (params.pmax + 1)
        * (1 << n) * (1 << n)
    )


def state_to_index(s: NeighborState, params) -> int:
    """The ranking index extended by (degreeT, dsum, resetE, timerP, neighbors, counted)."""
    n, m = params.n, params.m_known
    i = ranking.state_to_index(s.rank, params)
    i = i * (n + 1) + s.degreeT
    i = i * (2 * m + 2) + s.dsum
    i = i * (params.emax + 1) + s.resetE
    i = i * (params.pmax + 1) + s.timerP
    i = (i << n) | s.neighbors
    return (i << n) | s.counted


def state_from_index(i: int, params) -> NeighborState:
    n, m = params.n, params.m_known
    counted = i & ((1 << n) - 1)
    i >>= n
    neighbors = i & ((1 << n) - 1)
    i >>= n
    i, timerP = divmod(i, params.pmax + 1)
    i, resetE = divmod(i, params.emax + 1)
    i, dsum = divmod(i, 2 * m + 2)
    rank_index, degreeT = divmod(i, n + 1)
    return NeighborState(
        rank=ranking.state_from_index(rank_index, params),
        degreeT=degreeT, dsum=dsum, resetE=resetE, timerP=timerP,
        neighbors=neighbors, counted=counted,
    )


def random_state(rng, params) -> NeighborState:
    validate_params(params)
    n, m = params.n, params.m_known
    return NeighborState(
        rank=ranking.random_state(rng, params),
        degreeT=int(rng.integers(0, n + 1)),
        dsum=int(rng.integers(0, 2 * m + 2)),
        resetE=int(rng.integers(0, params.emax + 1)),
        timerP=int(rng.integers(0, params.pmax + 1)),
        neighbors=random_mask(rng, n),
        counted=random_mask(rng, n),
    )


NEIGHBOR = Protocol(
    name="neighbor",
    validate_params=validate_params,
    validate_state=validate_state,
    state_count=state_count,
    state_to_index=state_to_index,
    state_from_index=state_from_index,
    random_state=random_state,
    step=step,
    output=output,
    to_json=to_json,
)
