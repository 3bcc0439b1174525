"""The state codec every ``engine.Protocol`` record derives from its field table."""

import hashlib
import json
import random

import numpy as np
import pytest

from poplab.engine import ProtocolParams, random_below
from poplab.errors import DomainViolation, MissingKnowledge
from poplab.neighbor import NEIGHBOR, NeighborState
from poplab.ranking import BLUE, RANKING, RED, RankState
from poplab.verifier import FIXED_OUTPUT, GREEDY_DEGREE, GreedyDegreeState


def _neighbor_params(n, m, tmax, pmax, emax):
    return ProtocolParams(n=n, m_known=m, tmax=tmax, pmax=pmax, emax=emax)


# state_count and a digest of sampled indices, their decoded states, ten
# random_state draws, their indices and the rng's next value, all recorded
# with the hand-written state functions the field tables replaced.
PINNED = [
    (RANKING, ProtocolParams(n=2, tmax=1), 48, "45e51c3314d1e198"),
    (RANKING, ProtocolParams(n=5, tmax=7), 1200, "9efe516b66b457fd"),
    (RANKING, ProtocolParams(n=8, tmax=1024), 393600, "2558624827ea0c91"),
    (NEIGHBOR, _neighbor_params(2, 1, 1, 1, 1), 36864, "225dee23fd3b8ea5"),
    (NEIGHBOR, _neighbor_params(4, 5, 80, 2880, 64), 22366811750400, "7ba00617d0d98541"),
    (NEIGHBOR, _neighbor_params(63, 62, 15624, 10**9, 15876),
     4052759134258248245849289625097987809348324754486137454592000000, "f35142e067700702"),
    (NEIGHBOR, _neighbor_params(64, 126, 32256, 3 * 10**9, 16384),
     218921992104301940972775769130083684627695219770216689895158579200, "39b82879c98b11a3"),
    (NEIGHBOR, _neighbor_params(70, 69, 19320, 10**10, 19600),
     1542555991622580548452856346361955678032577509982236700629329248256000, "9444190309f0fc7f"),
    (GREEDY_DEGREE, ProtocolParams(n=3), 24, "9c383257b439a944"),
    (GREEDY_DEGREE, ProtocolParams(n=63), 581072438321850875904, "35dbfabd500515fc"),
    (GREEDY_DEGREE, ProtocolParams(n=70), 82641413450218791239680, "b1037443cac9297c"),
    (FIXED_OUTPUT, ProtocolParams(n=2), 3, "51e7d61e4643d921"),
    (FIXED_OUTPUT, ProtocolParams(n=9, tmax=4), 10, "9de4b65003b0c806"),
]


@pytest.mark.parametrize(
    "protocol,params,count,digest", PINNED,
    ids=[f"{p.name}-n{params.n}" for p, params, _, _ in PINNED],
)
def test_codec_matches_pinned_values(protocol, params, count, digest):
    assert protocol.state_count(params) == count
    pick = random.Random(11)
    indices = [0, count - 1] + [pick.randrange(count) for _ in range(20)]
    decoded = [protocol.state_from_index(i, params) for i in indices]
    assert [protocol.state_to_index(s, params) for s in decoded] == indices
    for s in decoded:
        protocol.validate_state(s, params)
    rng = np.random.default_rng(7)
    draws = [protocol.random_state(rng, params) for _ in range(10)]
    blob = json.dumps([
        indices,
        [protocol.to_json(s) for s in decoded],
        [protocol.to_json(s) for s in draws],
        [protocol.state_to_index(s, params) for s in draws],
        int(rng.integers(0, 2**32)),  # the stream position after the draws
    ])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


def test_random_below_matches_int64_draw_below_64_bits():
    for n in (1, 2, 7, 31, 63):
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_below(a, 1 << n) == int(b.integers(0, 1 << n))
            assert a.integers(0, 100) == b.integers(0, 100)  # same stream position
    rng = np.random.default_rng(0)
    assert all(0 <= random_below(rng, 1 << n) < (1 << n) for n in (64, 65, 128, 200))
    assert any(random_below(rng, 1 << 65) >> 64 for _ in range(20))


def test_random_below_draws_uint64_words_above_2_63():
    # A power of two takes its bits as uint64 words, lowest first, never rejected.
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    low = int(b.integers(0, 1 << 64, dtype=np.uint64))
    high = int(b.integers(0, 1 << 6, dtype=np.uint64))
    assert random_below(a, 1 << 70) == low | high << 64
    assert a.integers(0, 100) == b.integers(0, 100)
    # Any other size rejects values at or above it and stays uniform.
    size = 3 << 63
    rng = np.random.default_rng(1)
    values = [random_below(rng, size) for _ in range(3000)]
    assert all(0 <= v < size for v in values)
    thirds = np.bincount([3 * v // size for v in values], minlength=3)
    assert all(abs(c - 1000) < 3 * 26 for c in thirds), thirds  # sigma = sqrt(3000 * 2/9)


@pytest.mark.parametrize("protocol,params,state,field", [
    (RANKING, ProtocolParams(n=2, tmax=3), RankState(0, 2, RED, BLUE, 0), "idT"),
    (RANKING, ProtocolParams(n=2, tmax=3), RankState(0, 1, RED, 0, 0), "colorT"),
    (RANKING, ProtocolParams(n=2, tmax=3), RankState(0, 1, RED, BLUE, 4), "timerT"),
    (NEIGHBOR, _neighbor_params(2, 1, 1, 1, 1),
     NeighborState(RankState(0, 1, RED, BLUE, 0), 0, 4, 0, 0, 0, 0), "dsum"),
    (NEIGHBOR, _neighbor_params(2, 1, 1, 1, 1),
     NeighborState(RankState(0, 1, RED, BLUE, 0), 0, 0, 0, 0, 0, 4), "counted"),
    (GREEDY_DEGREE, ProtocolParams(n=2), GreedyDegreeState(0, 4), "seen"),
    (FIXED_OUTPUT, ProtocolParams(n=2), 3, "claim"),
])
def test_validate_state_names_the_bad_field(protocol, params, state, field):
    with pytest.raises(DomainViolation, match=f"^{field} out of "):
        protocol.validate_state(state, params)


def test_validate_state_checks_params_first():
    bad = NeighborState(RankState(0, 9, RED, BLUE, 0), 0, 0, 0, 0, 0, 0)
    with pytest.raises(MissingKnowledge):
        NEIGHBOR.validate_state(bad, ProtocolParams(n=2))
    with pytest.raises(MissingKnowledge):
        NEIGHBOR.random_state(np.random.default_rng(0), ProtocolParams(n=2))
