"""The compiled step: build, load and drive ``_loop.c``.

``library()`` compiles ``_loop.c`` on first use with the system C compiler
(``cc`` with ``CC_FLAGS``, in a child process) and loads it with ``ctypes``.
The shared library is cached next to the bytecode in ``poplab/__pycache__/``
as ``_loop-<key>.so``.  The key is the sha256 of ``CC_FLAGS``, each flag
followed by a NUL byte, and then of the source, so neither an edited source
nor changed flags load a stale build.  A build is written to a temporary
name and moved into place, so concurrent first uses cannot see a
half-written file.  ``library_for(protocol, params)`` is the one answer to
whether ``_loop.c`` steps a record: ``engine.run_until`` and
``engine.run_trial`` run ``CompiledLoop``, and ``verifier._pair_tables``
calls ``step_pairs``, only when it returns the library; otherwise both keep
their Python code, which is also what runs when there is no compiler or the
build fails.  The package imports this module with itself, so that a
process's first trial does not pay for loading it; ``engine`` cannot import
it at its top, because this module imports ``ranking``, which imports
``engine``.

``CompiledLoop`` seeds and draws in C too: a trial's start and schedule
streams from its trial seed, or a run's schedule from its int seed, then
each block of pair indices, and the start, with exactly the states, numbers
and stream positions numpy's ``default_rng``, ``rng.integers`` and
``Protocol.random_states`` give.  No numpy Generator is built on that path.
``check_stream`` compares the seeding and the draws at every branch against
this numpy; ``stream_checked()`` runs it once per process, before the first
compiled trial, and ``engine._compiled_loop`` takes the Python loop when it
failed, rather than fork the seed stream.  ``library()`` itself does not
check, so ``verifier._pair_tables``, which draws nothing, never pays for it
and keeps its compiled tables either way.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import neighbor, ranking
from .engine import _BLOCK, mix_seed

SOURCE = Path(__file__).with_name("_loop.c")
PROTOCOLS = {"ranking": ranking.RANKING, "neighbor": neighbor.NEIGHBOR}  # what _loop.c steps
MAX_AGENTS = 64  # label sets are uint64 masks
MAX_PARAM = 1 << 62  # keeps 2*m_known + 1 and every timer inside an int64
CC_FLAGS = ("-O2", "-shared", "-fPIC")


def _cache_path() -> Path:
    """Where the build of the current source with ``CC_FLAGS`` is cached."""
    key = hashlib.sha256("".join(f"{flag}\0" for flag in CC_FLAGS).encode())
    key.update(SOURCE.read_bytes())
    return SOURCE.parent / "__pycache__" / f"_loop-{key.hexdigest()}.so"


def _build() -> Path:
    """The cached shared library of the current source and flags, compiled if missing."""
    cache = _cache_path()
    if cache.exists():
        return cache
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler: cc is not on PATH")
    cache.parent.mkdir(exist_ok=True)
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    import subprocess  # only a build needs it; most processes find the cached library

    try:
        proc = subprocess.run(
            [cc, *CC_FLAGS, "-o", str(tmp), str(SOURCE)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise OSError(f"cc failed on {SOURCE.name}: {proc.stderr.strip()}")
        os.replace(tmp, cache)
    finally:
        tmp.unlink(missing_ok=True)
    return cache


class Library(NamedTuple):
    """The built library's entries, with their ctypes signatures set."""

    advance: Any  # poplab_advance
    step_pairs: Any  # poplab_step_pairs
    seed: Any  # poplab_seed
    seed_trial: Any  # poplab_seed_trial
    draw_states: Any  # poplab_draw_states


STREAM_WORDS = 6  # a stream in C: PCG64's state and inc, high word first, has_uint32, uinteger
_WORD = (1 << 64) - 1


def entropy(seed: int) -> bytes:
    """``seed``'s 32-bit words, little end first, as numpy's SeedSequence hashes an int.

    One word below 2^32, else as many as the value needs.  A negative seed
    raises numpy's ValueError.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed.to_bytes(4 * max(1, (seed.bit_length() + 31) // 32), "little")


def _seed(lib: Library, data: bytes, index: int | None, at: int) -> None:
    """Seed the stream at address ``at`` from the ``entropy`` bytes ``data``, as ``stream`` does."""
    if index is None:
        lib.seed(data, len(data) // 4, at)
    else:
        lib.seed_trial(data, len(data) // 4, index, at)


def stream(lib: Library, seed: int, index: int | None = None) -> np.ndarray:
    """The stream words of ``default_rng(seed)``, or of ``default_rng(mix_seed(seed, index))``, seeded in C."""
    words = np.empty(STREAM_WORDS, dtype=np.uint64)
    _seed(lib, entropy(seed), index, words.ctypes.data)
    return words


def numpy_words(rng: np.random.Generator) -> list[int]:
    """A PCG64 Generator's state as the stream words of ``_loop.c``."""
    state = rng.bit_generator.state
    lcg = state["state"]
    return [lcg["state"] >> 64, lcg["state"] & _WORD, lcg["inc"] >> 64, lcg["inc"] & _WORD,
            state["has_uint32"], state["uinteger"]]


# The stream check.  Seeds of one, two and four entropy words, each plain and
# at both trial indices; then one stream drawn in odd runs (so the buffered
# 32-bit half is live from one bound to the next) at bounds that reach every
# branch of draw_below: 0, 32-bit Lemire, the raw 32-bit word, 64-bit Lemire
# and the raw 64-bit word.
_CHECK_SEEDS = (2019, 2**64 - 1, 2**96 + 5)
_CHECK_BOUNDS = (1, 12, 2**32 - 1, 2**32, 2**33 + 1, 2**64)
_CHECK_DRAWS = 41


def _reference_draws(rng: np.random.Generator, bound: int, count: int) -> np.ndarray:
    """What the C draw must give: ``count`` numpy draws from 0..bound-1, as uint64."""
    return rng.integers(0, bound, size=count, dtype=np.uint64)


def draw(lib: Library, stream: np.ndarray, bound: int, out: np.ndarray) -> None:
    """Fill ``out`` with draws from 0..bound-1 on the ``stream`` words, as ``rng.integers`` does.

    ``poplab_draw_states`` with one field whose lowest value is 0, one row a draw.
    """
    if out.dtype != np.uint64 or not out.flags.c_contiguous:
        raise ValueError("draws must go to a contiguous uint64 array")
    lo, top = np.zeros(1, dtype=np.uint64), np.array([bound - 1], dtype=np.uint64)
    lib.draw_states(stream.ctypes.data, lo.ctypes.data, top.ctypes.data, 1, len(out), out.ctypes.data)


def check_stream(lib: Library) -> None:
    """Raise OSError unless C seeds numpy's streams, draws its numbers and leaves its state."""
    for seed in _CHECK_SEEDS:
        for index in (None, 0, 1):
            numpy_seed = seed if index is None else mix_seed(seed, index)
            if stream(lib, seed, index).tolist() != numpy_words(np.random.default_rng(numpy_seed)):
                raise OSError(f"_loop.c seeds another stream than numpy from seed {seed}, "
                              f"index {index}")
    ours, theirs = stream(lib, _CHECK_SEEDS[0]), np.random.default_rng(_CHECK_SEEDS[0])
    out = np.empty(_CHECK_DRAWS, dtype=np.uint64)
    for bound in _CHECK_BOUNDS:
        draw(lib, ours, bound, out)
        if not np.array_equal(out, _reference_draws(theirs, bound, len(out))):
            raise OSError(f"_loop.c draws other numbers than numpy below {bound}")
    if ours.tolist() != numpy_words(theirs):
        raise OSError("_loop.c leaves the generator in another state than numpy")


def entries(path: Path) -> Library:
    """The entries of the shared library at ``path``; raises OSError when it cannot be loaded."""
    lib = ctypes.CDLL(str(path))
    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    advance = lib.poplab_advance
    advance.argtypes = [pointer] * 7 + [int64, int64, pointer]
    advance.restype = int64
    step_pairs = lib.poplab_step_pairs
    step_pairs.argtypes = [pointer, pointer, int64]
    step_pairs.restype = None
    seed = lib.poplab_seed
    seed.argtypes = [ctypes.c_char_p, int64, pointer]
    seed.restype = None
    seed_trial = lib.poplab_seed_trial
    seed_trial.argtypes = [ctypes.c_char_p, int64, int64, pointer]
    seed_trial.restype = None
    draw_states = lib.poplab_draw_states
    draw_states.argtypes = [pointer] * 3 + [int64, int64, pointer]
    draw_states.restype = None
    return Library(advance, step_pairs, seed, seed_trial, draw_states)


@functools.cache
def library() -> Library | None:
    """The entries of the built library, once per process, or None when it cannot be built or loaded."""
    try:
        return entries(_build())
    except OSError:
        return None


@functools.cache
def stream_checked() -> bool:
    """Did ``check_stream`` pass on ``library()``?  Checked once per process, on first use."""
    lib = library()
    if lib is None:
        return False
    try:
        check_stream(lib)
    except OSError:
        return False
    return True


def library_for(protocol, params) -> Library | None:
    """The library when ``_loop.c`` steps this record with these params, else None.

    The record must be the registered ``RANKING`` or ``NEIGHBOR`` itself (a
    ``dataclasses.replace`` copy is another record) and every param must
    ``fit``.  Those are checked before ``library()``, so a run or a verify of
    any other protocol never builds or loads the library.
    """
    if protocol is not PROTOCOLS.get(protocol.name) or not fits(params):
        return None
    return library()


def _params_row(params) -> list[int]:
    """The params in the C header, after n and the protocol flag; an absent one is 0."""
    return [params.tmax, params.pmax or 0, params.emax or 0, params.m_known or 0]


def fits(params) -> bool:
    """Do n and every param of the C header fit the C fields?"""
    return params.n <= MAX_AGENTS and all(0 <= v < MAX_PARAM for v in _params_row(params))


def _header(protocol, n: int, params, last_pair: int) -> np.ndarray:
    """The C header ``cfg``: n, the protocol flag, the params, then the largest pair index."""
    return np.array([n, protocol is PROTOCOLS["neighbor"], *_params_row(params), last_pair],
                    dtype=np.int64)


def step_pairs(lib: Library, protocol, params, rows: np.ndarray) -> None:
    """``protocol.step`` applied in place to every (initiator, responder) pair of ``rows``.

    ``rows`` has shape (count, 2, fields), C-contiguous uint64, each row a
    state's field values as ``protocol.flatten`` gives them; ``rows[i, 0]``
    initiates and ``rows[i, 1]`` responds.  The states must lie in the
    domain of ``params``: C does not check them.
    """
    if (rows.dtype != np.uint64 or not rows.flags.c_contiguous
            or rows.shape[1:] != (2, len(protocol.fields))):
        raise ValueError("state pairs must be a contiguous uint64 array, (count, 2, fields)")
    cfg = _header(protocol, params.n, params, 0)  # referenced while C reads it; draws no pairs
    lib.step_pairs(cfg.ctypes.data, rows.ctypes.data, len(rows))


class _Setup(NamedTuple):
    """What every loop of one protocol, graph and params shares, built once."""

    arrays: tuple  # the header and the graph arrays, referenced while C reads them
    pointers: tuple  # their addresses, in poplab_advance's order
    lo: np.ndarray  # each field's lowest value, uint64
    top: np.ndarray  # each field's size - 1, uint64
    bounds: tuple  # the addresses of lo and top


@functools.lru_cache(maxsize=256)
def _setup(protocol, g, params) -> _Setup:
    protocol.validate_params(params)
    arrays = (_header(protocol, g.n, params, len(g.directed_pairs) - 1), *g.pair_arrays)
    lo = np.array([f.lo for f in protocol.fields], dtype=np.uint64)
    top = np.array([f.size(params) - 1 for f in protocol.fields], dtype=np.uint64)
    return _Setup(arrays, tuple(a.ctypes.data for a in arrays), lo, top,
                  (lo.ctypes.data, top.ctypes.data))


class CompiledLoop:
    """One run's configuration and schedule stream in C memory, advanced a block at a time.

    Same interface as ``engine``'s Python loop.  ``advance(size, closure,
    last)`` draws the next ``size`` (at most ``engine._BLOCK``) pair indices
    and steps through them in one C call, returning (the block, pairs
    consumed, stopped on the condition); in the run's ``last`` phase it
    draws none after the stopping step.  ``converge(block)`` and
    ``closure(block)`` step through a given block instead, and ``states()``
    is the configuration as the protocol's NamedTuples.  A row of C memory
    is one agent's state as ``protocol.flatten`` gives it, in the order of
    ``protocol.fields``.

    Given a ``start`` configuration, the schedule is the stream of
    ``default_rng(seed)``.  With ``start`` None, ``seed`` is a trial seed:
    the start is drawn in C from the stream of ``default_rng(mix_seed(seed,
    0))``, with the numbers ``engine.sample_uniform_config`` draws, and the
    schedule is that of ``mix_seed(seed, 1)``; one vectorized domain check
    then stands in for ``validate_state`` and raises its DomainViolation.
    """

    def __init__(self, lib: Library, protocol, g, params, start, seed: int):
        setup = _setup(protocol, g, params)
        self._setup = setup  # referenced for as long as C reads its arrays
        self._unflatten = protocol.unflatten
        self._advance = lib.advance
        data = entropy(seed)
        self._stream = np.empty(STREAM_WORDS, dtype=np.uint64)
        stream_at = self._stream.ctypes.data
        if start is None:
            self._states = np.empty((params.n, len(setup.lo)), dtype=np.uint64)
            states_at = self._states.ctypes.data
            _seed(lib, data, 0, stream_at)
            lib.draw_states(stream_at, *setup.bounds, len(setup.lo), params.n, states_at)
            outside = (self._states - setup.lo) > setup.top  # below lo wraps around above top
            if outside.any():
                bad = self._states[outside.any(axis=1)][0]
                protocol.validate_state(protocol.unflatten(bad.tolist()), params)
            _seed(lib, data, 1, stream_at)
        else:
            self._states = np.array([protocol.flatten(s) for s in start], dtype=np.uint64)
            states_at = self._states.ctypes.data
            _seed(lib, data, None, stream_at)
        self._block = np.empty(_BLOCK, dtype=np.int64)
        self._hit = ctypes.c_int64()
        self._hit_at = ctypes.addressof(self._hit)
        self._args = (*setup.pointers, states_at)
        self._drawn = (stream_at, self._block.ctypes.data)

    def advance(self, size: int, closure: bool, last: bool) -> tuple[np.ndarray, int, bool]:
        done = self._advance(*self._args, *self._drawn, size, closure + 2 * last, self._hit_at)
        return self._block, done, bool(self._hit.value)

    def _run(self, block: np.ndarray, closure: int) -> tuple[int, bool]:
        if block.dtype != np.int64 or not block.flags.c_contiguous:
            raise ValueError("pair indices must be a contiguous int64 array")
        done = self._advance(*self._args, None, block.ctypes.data, len(block), closure,
                             self._hit_at)
        return done, bool(self._hit.value)

    def converge(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 0)

    def closure(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 1)

    def states(self) -> list:
        return [self._unflatten(row) for row in self._states.tolist()]
