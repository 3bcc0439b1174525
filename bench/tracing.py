"""Outside-in tracing of poplab's layers, for the benchmark's traced run.

Nothing in the program is edited.  For the length of a run, public module
functions are replaced by timing wrappers (and put back by ``restore``), the
protocol object handed to ``run_trial`` is wrapped in a delegating proxy,
and the safe predicate is wrapped with its ``signature`` attribute kept, so
the engine's skip logic is the one being measured.

Calls made once per trial or per command (``run_until``,
``sample_uniform_config``, ``generate_graph``, the public verifier functions,
``cli.main``) are recorded as spans with a parent link.  Calls made once per
interaction (``step``, ``output``, the predicate) only add to a call count
and a timer.  A wrapped call's self time is its duration minus the time of
the wrapped calls made inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._leaves = {}  # name -> [calls, seconds], shared by every wrapper of that name
        self._stack = []  # frames of the open spans
        self._patched = []
        self._final_seen = {}  # id(transition graph) -> weakref, to count final sets once each
        self._origin = perf_counter()

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """One span: a trial, a verify command, or a call into a layer."""
        span = {"id": len(self.spans), "parent": self._stack[-1][0] if self._stack else None,
                "name": name, **attrs}
        self.spans.append(span)
        frame = [span["id"], 0.0]  # span id, seconds of the traced calls inside it
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            span["start"] = start - self._origin
            span["end"] = span["start"] + elapsed
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(self, name: str, fn, on_result=None):
        """Span per call; ``on_result(result, *args)`` counts the work a call did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    def leaf(self, name: str, fn):
        """Aggregate count and time only; for calls made once per interaction."""
        acc = self._leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            acc[0] += 1
            acc[1] += elapsed
            if stack:
                stack[-1][1] += elapsed
            return result

        return traced

    # -- module attributes ---------------------------------------------------

    def patch(self, module, attr: str, layer: str, on_result=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(f"{layer}.{attr}", original, on_result))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def install(self, poplab) -> None:
        """Wrap the public functions of engine, graph, verifier and cli."""
        self.patch(poplab.engine, "run_until", "engine")
        self.patch(poplab.engine, "sample_uniform_config", "engine")
        self.patch(poplab.graph, "generate_graph", "graph")
        self.patch(poplab.verifier, "build_transition_graph", "verifier", self._count_configs)
        self.patch(poplab.verifier, "final_sets", "verifier", self._count_final)
        self.patch(poplab.verifier, "verify_transition_graph", "verifier")
        self.patch(poplab.verifier, "impossibility_witness", "verifier")
        self.patch(poplab.cli, "main", "cli")

    def _count_configs(self, tg, *_) -> None:
        self.counts["verifier.configs"] += tg.config_count
        self.counts["verifier.transitions"] += tg.config_count * len(tg.directed_pairs)

    def _count_final(self, fsets, tg, *_) -> None:
        # verify calls final_sets twice on one transition graph; count its answer once.
        seen = self._final_seen.get(id(tg))
        if seen is not None and seen() is tg:
            return
        self._final_seen[id(tg)] = weakref.ref(tg)
        self.counts["verifier.final_configs"] += sum(len(f) for f in fsets)

    # -- objects handed to the engine ---------------------------------------

    def protocol(self, protocol):
        return _ProtocolProxy(protocol, self)

    def predicate(self, pred):
        traced = self.leaf("oracles.pred", pred)
        signature = getattr(pred, "signature", None)
        if signature is not None:
            traced.signature = signature
        return traced

    def snapshot(self) -> dict:
        """Every counter and timer, for differencing set-up from the rounds."""
        out = {}
        for name in self.calls:
            out[f"{name}:calls"] = self.calls[name]
            out[f"{name}:s"] = self.seconds[name]
            out[f"{name}:self_s"] = self.self_seconds[name]
        for name, (calls, seconds) in self._leaves.items():
            out[f"{name}:calls"] = calls
            out[f"{name}:s"] = seconds
        out.update(self.counts)
        return out


class _ProtocolProxy:
    """Delegates everything to the protocol; times step, output and random_state."""

    def __init__(self, protocol, tracer: Tracer):
        self._protocol = protocol
        layer = protocol.name
        self.step = tracer.leaf(f"{layer}.step", protocol.step)
        self.step_fast = tracer.leaf(f"{layer}.step", getattr(protocol, "step_fast", protocol.step))
        self.output = tracer.leaf(f"{layer}.output", protocol.output)
        self.random_state = tracer.leaf(f"{layer}.random_state", protocol.random_state)

    def __getattr__(self, attr):
        return getattr(self._protocol, attr)
