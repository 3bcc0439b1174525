"""Execution engine: the protocol record, the scheduler, trials, replay.

Every protocol is one ``Protocol`` record: its state's field table, its
functions and whether it needs exact knowledge of m.  Its ``step`` is
unchecked; ``checked_step`` is the single place that validates both endpoint
states before stepping.  The engine reaches a protocol by attribute only.
The record derives its state functions (validation, count, index, uniform
draw) from the field table.

A configuration is a plain tuple of per-agent states (agent id = index).
One step = one interaction: a directed pair (initiator, responder) drawn
uniformly from the 2m directed pairs of the population.  Runs are fully
determined by (protocol, graph, initial configuration, params, seed); trial
seeds are split from a master seed with a documented mixing function so
sweeps stay reproducible and embarrassingly parallel.

The schedule is drawn in one place, ``_draw_and_advance``: it draws blocks
of ``_BLOCK`` pair indices and hands each block to one of two step loops,
which report how many pairs they consumed before the stop condition
(safety, or an output change in the closure window), so the seed stream,
the record, ``final_states`` and the trace do not depend on the loop.
``run_until`` calls it once for convergence and once for the closure
window.  ``replay`` applies a given pair sequence, such as a recorded trace
or a verifier witness, through ``checked_step``.

``_compiled_loop`` is the one dispatch rule: the compiled loop (``_loop.c``,
built on first use; see ``_compiled``) runs only when the protocol is
``RANKING`` or ``NEIGHBOR``, the predicate carries the ``safe_for`` mark that
``oracles.rank_safe_predicate`` and ``oracles.neighbor_safe_predicate``
attach, built for this graph and n, n <= 64 with every param inside its C
field, and the library loaded.  Everything else (custom or wrapped
predicates, proxies, n >= 65, no C compiler) runs the Python loop, which is
the reference.  On the compiled path the Python predicate confirms what C
claims: it must reject the configuration where an unconverged run stopped,
and accept the one at ``steps_to_safe`` and the final one (the safe set is
closed); a disagreement raises RuntimeError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainViolation, MissingKnowledge, NotAnEdge
from .graph import Graph

DEFAULT_CLOSURE_WINDOW = 100_000
_BLOCK = 8192
_INT64_BOUND = 1 << 63  # the largest size rng.integers(0, size) takes


class Field(NamedTuple):
    """One field of a per-agent state: the values lo..lo+size(params)-1."""

    name: str
    lo: int
    size: Callable[[Any], int]


def random_below(rng: np.random.Generator, size: int) -> int:
    """One uniform draw from 0..size-1, for any size >= 1.

    Up to 2^63 this is ``rng.integers(0, size)``.  Above, where that int64
    bound overflows, it draws ``(size - 1).bit_length()`` bits as uint64
    words, lowest word first, and draws again while the value is not below
    ``size``; for a power of two that never happens.
    """
    if size <= _INT64_BOUND:
        return int(rng.integers(0, size))
    width = (size - 1).bit_length()
    while True:
        value = 0
        for shift in range(0, width, 64):
            word = rng.integers(0, 1 << min(64, width - shift), dtype=np.uint64)
            value |= int(word) << shift
        if value < size:
            return value


@dataclass(frozen=True)
class Protocol:
    """The whole description of a protocol: its state's field table and its functions.

    ``fields`` is the per-agent state's ordered field table; ``flatten(s)``
    gives a state's field values in table order and ``unflatten(values)``
    rebuilds the state from them.  ``step(s0, s1, params)`` is one
    interaction (s0 initiates, s1 responds) without domain checks; wrap it
    in ``checked_step`` for untrusted states.  ``output(s)`` is the agent's
    claim and ``to_json(s)`` renders a state.  ``needs_m`` declares that the
    protocol needs exact knowledge of the pair count m.

    The state functions are derived from the table.  ``state_to_index`` and
    ``validate_state`` raise DomainViolation naming the first field outside
    lo..lo+size-1.  The state index (the verifier's packing order) is mixed
    radix over the offsets value - lo, first field most significant, so
    ``state_count`` is the product of the sizes and the index of a state
    never needs more bits than its fields' binary widths together.
    ``random_state`` draws the fields in table order, one ``random_below``
    each.  Every state function validates params first: the sizes come from
    ``validate_params`` and then the table, computed again only when a call
    passes another params object than the call before (params are frozen),
    so a run that reuses its params pays for them once.
    """

    name: str
    fields: tuple[Field, ...]
    flatten: Callable[[Any], Sequence[int]]
    unflatten: Callable[[Sequence[int]], Any]
    step: Callable[[Any, Any, Any], tuple]
    output: Callable[[Any], Any]
    to_json: Callable[[Any], dict]
    needs_m: bool = False

    _latest = (object(), ())  # (params, sizes) of the latest call; not a field, set per record

    def validate_params(self, params) -> None:
        """Raise MissingKnowledge when the protocol needs m and ``params`` does not carry it."""
        if self.needs_m and params.m_known is None:
            raise MissingKnowledge(f"{self.name} requires exact knowledge of m")

    def _sizes(self, params) -> tuple[int, ...]:
        seen, radices = self._latest
        if seen is not params:
            self.validate_params(params)
            radices = tuple(f.size(params) for f in self.fields)
            object.__setattr__(self, "_latest", (params, radices))
        return radices

    def state_to_index(self, s, params) -> int:
        i = 0
        for (name, lo, _), size, value in zip(self.fields, self._sizes(params), self.flatten(s),
                                              strict=True):
            if not lo <= value < lo + size:
                raise DomainViolation(f"{name} out of {lo}..{lo + size - 1} in {s}")
            i = i * size + (value - lo)
        return i

    def validate_state(self, s, params) -> None:
        self.state_to_index(s, params)

    def state_count(self, params) -> int:
        return math.prod(self._sizes(params))

    def state_from_index(self, i: int, params):
        digits = []
        for size in reversed(self._sizes(params)):
            i, digit = divmod(i, size)
            digits.append(digit)
        return self.unflatten([f.lo + digit for f, digit in zip(self.fields, reversed(digits))])

    def random_state(self, rng: np.random.Generator, params):
        return self.unflatten(
            [f.lo + random_below(rng, size) for f, size in zip(self.fields, self._sizes(params))])


def checked_step(protocol, s0, s1, params) -> tuple:
    """One interaction with both endpoint states validated first."""
    protocol.validate_state(s0, params)
    protocol.validate_state(s1, params)
    return protocol.step(s0, s1, params)


@dataclass(frozen=True)
class ProtocolParams:
    """Knowledge sets and timer ceilings.

    ``n`` is the exact agent count (always required), ``m_known`` the exact
    unordered-pair count when given.  ``tmax`` paces token recoloring;
    ``pmax`` and ``emax`` pace the degree-sum audit and error propagation of
    the neighbor protocol: required with ``m_known``, rejected without it.
    """

    n: int
    m_known: int | None = None
    tmax: int = 1
    pmax: int | None = None
    emax: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainViolation(f"need n >= 2, got {self.n}")
        if self.tmax < 1:
            raise DomainViolation(f"need tmax >= 1, got {self.tmax}")
        if self.m_known is not None:
            if self.m_known < 1:
                raise DomainViolation(f"need m >= 1, got {self.m_known}")
            if self.pmax is None or self.pmax < 1 or self.emax is None or self.emax < 1:
                raise DomainViolation("pmax >= 1 and emax >= 1 are required when m is known")
        elif self.pmax is not None or self.emax is not None:
            raise DomainViolation("pmax and emax pace the neighbor audit, which needs m known")

    def to_json_fields(self) -> dict:
        return {"tmax": self.tmax, "pmax": self.pmax, "emax": self.emax}


def default_params(
    g: Graph,
    know_m: bool = False,
    tmax: int | None = None,
    pmax: int | None = None,
    emax: int | None = None,
) -> ProtocolParams:
    """Default timer ceilings for a population.

    tmax = 4mn when m is known, else 2n^3 (an upper bound of the same order,
    since mn <= n^3/2); pmax = 8mnd*ceil(log2 n); emax = 4n^2.  Small
    constants keep desk-scale convergence quick while preserving the orders
    the protocols need.  Every ceiling can be overridden per run.
    """
    n, m, d = g.n, g.m, g.diameter
    if tmax is None:
        tmax = 4 * m * n if know_m else 2 * n**3
    if know_m:
        if pmax is None:
            pmax = 8 * m * n * d * max(1, math.ceil(math.log2(n)))
        if emax is None:
            emax = 4 * n * n
        return ProtocolParams(n=n, m_known=m, tmax=tmax, pmax=pmax, emax=emax)
    return ProtocolParams(n=n, tmax=tmax, pmax=pmax, emax=emax)


def mix_seed(master_seed: int, index: int) -> int:
    """Split one 64-bit stream per trial: seed i = SeedSequence((master, i)).

    numpy's SeedSequence hashes the entropy tuple, so nearby masters/indices
    produce statistically independent streams.
    """
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class InteractionTrace:
    """The ordered directed pairs a run scheduled, plus the seed that drew them."""

    pairs: tuple[tuple[int, int], ...]
    seed: int


@dataclass
class RunResult:
    """Outcome of one seeded trial.

    ``steps_to_safe`` is None when the safe predicate never held within
    ``max_steps``; ``closure_ok`` is defined only once safety was reached and
    reports whether the closure window saw zero output changes.
    """

    protocol: str
    n: int
    m: int
    d: int
    seed: int
    tmax: int
    pmax: int | None
    emax: int | None
    steps_to_safe: int | None
    closure_ok: bool | None
    final_states: tuple = field(repr=False, compare=False, default=())
    trace: InteractionTrace | None = field(repr=False, compare=False, default=None)

    RECORD_FIELDS = (
        "protocol", "n", "m", "d", "seed",
        "tmax", "pmax", "emax", "steps_to_safe", "closure_ok",
    )

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in self.RECORD_FIELDS}


def replay(protocol, g: Graph, c: Sequence, pairs, params) -> tuple:
    """Apply the interactions ``pairs`` to ``c`` in order, each through ``checked_step``.

    Raises NotAnEdge for a pair that is not a directed edge of ``g``.
    """
    states = list(c)
    for u, v in pairs:
        if not g.has_edge(u, v):
            raise NotAnEdge(f"({u},{v}) is not a directed edge")
        states[u], states[v] = checked_step(protocol, states[u], states[v], params)
    return tuple(states)


def sample_uniform_config(protocol, params, seed) -> tuple:
    """Independent uniform draw over the full declared per-agent state domain.

    This is the harness proxy for an arbitrary (adversarial) starting
    configuration.  ``seed`` may be an int or a ready numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return tuple(protocol.random_state(rng, params) for _ in range(params.n))


class _PythonLoop:
    """The reference step loop: ``protocol.step`` and the predicate, in Python.

    ``converge(block)`` steps through a block of pair indices until the safe
    predicate holds, ``closure(block)`` until an output differs from the one
    the agent had when the closure window began; both return (pairs
    consumed, stopped on the condition).  ``states()`` is the configuration.
    """

    def __init__(self, protocol, pairs, c0, params, safe_predicate):
        self._protocol = protocol
        self._pairs = pairs
        self._states = list(c0)
        self._params = params
        self._safe = safe_predicate
        self._outputs = None

    def converge(self, block: np.ndarray) -> tuple[int, bool]:
        pairs, states, params, step, safe = (
            self._pairs, self._states, self._params, self._protocol.step, self._safe)
        done = 0
        for idx in block.tolist():
            u, v = pairs[idx]
            t0, t1 = step(states[u], states[v], params)
            states[u] = t0
            states[v] = t1
            done += 1
            if safe(states):
                return done, True
        return done, False

    def closure(self, block: np.ndarray) -> tuple[int, bool]:
        pairs, states, params, step, output = (
            self._pairs, self._states, self._params, self._protocol.step, self._protocol.output)
        if self._outputs is None:
            self._outputs = [output(s) for s in states]
        outputs = self._outputs
        done = 0
        for idx in block.tolist():
            u, v = pairs[idx]
            t0, t1 = step(states[u], states[v], params)
            states[u] = t0
            states[v] = t1
            done += 1
            if output(t0) != outputs[u] or output(t1) != outputs[v]:
                return done, True
        return done, False

    def states(self) -> list:
        return self._states


def _compiled_loop(protocol, g: Graph, params, c0, safe_predicate):
    """The one dispatch rule: the compiled loop for this run, or None for the Python loop.

    Compiled only when the protocol is ``RANKING`` or ``NEIGHBOR``, the
    predicate carries the ``safe_for`` mark of that protocol's oracle factory
    built for this graph and n, n <= 64 with every param inside its C field,
    and the library loaded.
    """
    safe_for = getattr(safe_predicate, "safe_for", None)
    if safe_for is None:
        return None
    from . import _compiled  # only runs that may use the library import it

    name, pred_g, pred_params = safe_for
    if (
        protocol is not _compiled.PROTOCOLS.get(name)
        or pred_params.n != params.n
        or (pred_g is not None and pred_g != g)
        or not _compiled.fits(params)
    ):
        return None
    advance = _compiled.library()
    if advance is None:
        return None
    return _compiled.CompiledLoop(advance, protocol, g, params, c0)


def _confirm(safe_predicate, states, safe: bool, step: int) -> None:
    """The Python predicate must give the compiled loop's verdict on its configuration."""
    if bool(safe_predicate(states)) != safe:
        raise RuntimeError(
            f"compiled loop and safe predicate disagree at step {step}: "
            f"the loop found the configuration {'safe' if safe else 'unsafe'}"
        )


def _draw_and_advance(rng, pairs, budget: int, advance, trace) -> tuple[int, bool]:
    """The scheduler: uniform pair indices in blocks of at most ``_BLOCK``, fed to ``advance``.

    ``advance`` is a loop's ``converge`` or ``closure``.  Stops once it
    reports its condition or ``budget`` pairs are consumed; the consumed
    pairs extend ``trace`` unless it is None.  Returns (pairs consumed,
    stopped on the condition).
    """
    done = 0
    while done < budget:
        block = rng.integers(0, len(pairs), size=min(_BLOCK, budget - done))
        consumed, stopped = advance(block)
        done += consumed
        if trace is not None:
            trace.extend(pairs[i] for i in block[:consumed].tolist())
        if stopped:
            return done, True
    return done, False


def run_until(
    protocol,
    g: Graph,
    c0: Sequence,
    params,
    seed: int,
    max_steps: int,
    safe_predicate: Callable,
    *,
    closure_window: int = DEFAULT_CLOSURE_WINDOW,
    record_trace: bool = False,
) -> RunResult:
    """Run under the uniformly random scheduler until the predicate holds.

    After the predicate first holds the run continues for ``closure_window``
    extra steps, recording whether any agent output changed.  Non-convergence
    within ``max_steps`` is data (steps_to_safe=None), not an error.

    ``c0`` is validated once up front; every step then calls the protocol's
    unchecked ``step`` (or its compiled copy, see the module docstring),
    whose results stay in the declared domain.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    protocol.validate_params(params)
    if len(c0) != g.n or g.n != params.n:
        raise DomainViolation(f"configuration/graph/params sizes disagree: {len(c0)}, {g.n}, {params.n}")
    for s in c0:
        protocol.validate_state(s, params)

    rng = np.random.default_rng(seed)
    pairs = g.directed_pairs
    loop = _compiled_loop(protocol, g, params, c0, safe_predicate)
    compiled = loop is not None
    if loop is None:
        loop = _PythonLoop(protocol, pairs, c0, params, safe_predicate)
    trace = [] if record_trace else None

    steps = 0
    steps_to_safe = 0 if safe_predicate(list(c0)) else None
    if steps_to_safe is None:
        steps, safe = _draw_and_advance(rng, pairs, max_steps, loop.converge, trace)
        if safe:
            steps_to_safe = steps
    if compiled and steps:
        _confirm(safe_predicate, loop.states(), steps_to_safe is not None, steps)

    closure_ok = None
    window = 0
    if steps_to_safe is not None:
        window, changed = _draw_and_advance(rng, pairs, closure_window, loop.closure, trace)
        closure_ok = not changed
    states = loop.states()
    if compiled and window:
        # The safe set is closed under steps, so the final configuration is safe too.
        _confirm(safe_predicate, states, True, steps + window)

    return RunResult(
        protocol=protocol.name,
        n=g.n,
        m=g.m,
        d=g.diameter,
        seed=seed,
        tmax=params.tmax,
        pmax=params.pmax,
        emax=params.emax,
        steps_to_safe=steps_to_safe,
        closure_ok=closure_ok,
        final_states=tuple(states),
        trace=InteractionTrace(tuple(trace), seed) if trace is not None else None,
    )


def run_trial(
    protocol,
    g: Graph,
    params,
    trial_seed: int,
    *,
    max_steps: int,
    safe_predicate: Callable,
    closure_window: int = DEFAULT_CLOSURE_WINDOW,
    record_trace: bool = False,
) -> RunResult:
    """One fully seeded trial: uniform start, then run_until.

    The initial configuration and the scheduler use independent streams
    mixed from ``trial_seed`` (indices 0 and 1); the result records
    ``trial_seed`` itself, so a record is reproducible from its seed alone.
    """
    c0 = sample_uniform_config(protocol, params, mix_seed(trial_seed, 0))
    res = run_until(
        protocol, g, c0, params, mix_seed(trial_seed, 1), max_steps, safe_predicate,
        closure_window=closure_window, record_trace=record_trace,
    )
    return dataclasses.replace(res, seed=trial_seed)
