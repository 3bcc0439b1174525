"""The compiled step: build, load and drive ``_loop.c``.

``library()`` compiles ``_loop.c`` on first use with the system C compiler
(``cc -O2 -shared -fPIC``, in a child process) and loads it with ``ctypes``.
The shared library is cached next to the bytecode in ``poplab/__pycache__/``
under the sha256 of the source, written to a temporary name and moved into
place, so concurrent first uses cannot see a half-written file and an edited
source never loads a stale build.  ``library_for(protocol, params)`` is the
one answer to whether ``_loop.c`` steps a record: ``engine.run_until`` and
``engine.run_trial`` run ``CompiledLoop``, and ``verifier._pair_tables``
calls ``step_pairs``, only when it returns the library; otherwise both keep
their Python code, which is also what runs when there is no compiler or the
build fails.  The package imports this module with itself, so that a
process's first trial does not pay for loading it; ``engine`` cannot import
it at its top, because this module imports ``ranking``, which imports
``engine``.

``CompiledLoop`` draws in C too: each block of pair indices, and, when it is
handed the Generator instead of a configuration, the start.  C reads the
Generator's bit generator through the ``bitgen_t`` table numpy exposes
(``rng.bit_generator.capsule``), holding the bit generator's lock, and gives
exactly the numbers ``rng.integers`` and ``Protocol.random_states`` give,
leaving the same generator state.  ``load()`` checks that against this
numpy before it returns: a mismatch raises OSError, so ``library()`` is
None and every run takes the Python loop rather than fork the seed stream.
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
from .engine import _BLOCK

SOURCE = Path(__file__).with_name("_loop.c")
PROTOCOLS = {"ranking": ranking.RANKING, "neighbor": neighbor.NEIGHBOR}  # what _loop.c steps
MAX_AGENTS = 64  # label sets are uint64 masks
MAX_PARAM = 1 << 62  # keeps 2*m_known + 1 and every timer inside an int64


def _build() -> Path:
    """The cached shared library of the current source, compiled if missing."""
    source = SOURCE.read_bytes()
    cache = SOURCE.parent / "__pycache__" / f"_loop-{hashlib.sha256(source).hexdigest()}.so"
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
            [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(SOURCE)],
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
    draw: Any  # poplab_draw
    draw_states: Any  # poplab_draw_states


# The load-time check of the C draw: one generator, odd runs of draws (so the
# 32-bit buffer of the bit generator is live from one bound to the next), at
# bounds that reach every branch of draw_below: 0, 32-bit Lemire, the raw
# 32-bit word, 64-bit Lemire and the raw 64-bit word.
_CHECK_SEED = 2019
_CHECK_BOUNDS = (1, 12, 2**32 - 1, 2**32, 2**33 + 1, 2**64)
_CHECK_DRAWS = 41


def _reference_draws(rng: np.random.Generator, bound: int, count: int) -> np.ndarray:
    """What the C draw must give: ``count`` numpy draws from 0..bound-1, as uint64."""
    return rng.integers(0, bound, size=count, dtype=np.uint64)


# The bitgen_t address of a bit generator, from the capsule numpy gives C code:
# the address ``bit_generator.ctypes.bit_generator`` holds, without building
# that ctypes interface, which takes about 10 times as long on a fresh
# generator, and each trial draws from two.
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _draw_with(entry, rng: np.random.Generator, *args) -> None:
    """Call a C draw entry on ``rng``'s bit generator, holding its lock."""
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        entry(_capsule_pointer(bit_generator.capsule, b"BitGenerator"), *args)


def _check_draw(lib: Library) -> None:
    """Raise OSError unless the C draw gives numpy's numbers and leaves numpy's state."""
    ours, theirs = np.random.default_rng(_CHECK_SEED), np.random.default_rng(_CHECK_SEED)
    out = np.empty(_CHECK_DRAWS, dtype=np.uint64)
    for bound in _CHECK_BOUNDS:
        _draw_with(lib.draw, ours, bound - 1, len(out), out.ctypes.data)
        if not np.array_equal(out, _reference_draws(theirs, bound, len(out))):
            raise OSError(f"_loop.c draws other numbers than numpy below {bound}")
    if ours.bit_generator.state != theirs.bit_generator.state:
        raise OSError("_loop.c leaves the generator in another state than numpy")


def load() -> Library:
    """The entries of the built library, its draw checked; raises OSError when unavailable."""
    lib = ctypes.CDLL(str(_build()))
    advance = lib.poplab_advance
    advance.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    advance.restype = ctypes.c_int64
    step_pairs = lib.poplab_step_pairs
    step_pairs.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    step_pairs.restype = None
    draw = lib.poplab_draw
    draw.argtypes = [ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p]
    draw.restype = None
    draw_states = lib.poplab_draw_states
    draw_states.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64, ctypes.c_int64,
                                                    ctypes.c_void_p]
    draw_states.restype = None
    entries = Library(advance, step_pairs, draw, draw_states)
    _check_draw(entries)
    return entries


@functools.cache
def library() -> Library | None:
    """``load()``, once per process, or None when the library cannot be built or loaded."""
    try:
        return load()
    except OSError:
        return None


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


def _header(protocol, n: int, params) -> np.ndarray:
    """The C header ``cfg``: n, the protocol flag, then the params."""
    return np.array([n, protocol is PROTOCOLS["neighbor"], *_params_row(params)], dtype=np.int64)


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
    cfg = _header(protocol, params.n, params)  # referenced while C reads it
    lib.step_pairs(cfg.ctypes.data, rows.ctypes.data, len(rows))


class _Setup(NamedTuple):
    """What every loop of one protocol, graph and params shares, built once."""

    arrays: tuple  # the header and the graph arrays, referenced while C reads them
    pointers: tuple  # their addresses, in poplab_advance's order
    lo: np.ndarray  # each field's lowest value, uint64
    top: np.ndarray  # each field's size - 1, uint64
    bounds: tuple  # the addresses of lo and top
    last_pair: int  # len(directed_pairs) - 1, the bound of a pair index


@functools.lru_cache(maxsize=256)
def _setup(protocol, g, params) -> _Setup:
    protocol.validate_params(params)
    arrays = (_header(protocol, g.n, params), *g.pair_arrays)
    lo = np.array([f.lo for f in protocol.fields], dtype=np.uint64)
    top = np.array([f.size(params) - 1 for f in protocol.fields], dtype=np.uint64)
    return _Setup(arrays, tuple(a.ctypes.data for a in arrays), lo, top,
                  (lo.ctypes.data, top.ctypes.data), len(g.directed_pairs) - 1)


class CompiledLoop:
    """One run's configuration in C memory, advanced one block of pair indices at a time.

    Same interface as ``engine``'s Python loop: ``draw(rng, size)`` gives the
    next block of pair indices, ``converge(block)`` and ``closure(block)``
    return (pairs consumed, stopped on the condition), and ``states()`` the
    configuration as the protocol's NamedTuples.  A row of C memory is one
    agent's state as ``protocol.flatten`` gives it, in the order of
    ``protocol.fields``.  ``states`` is the start configuration, or a
    Generator to draw it from in C, with the numbers
    ``engine.sample_uniform_config`` would draw; one vectorized domain check
    then stands in for ``validate_state`` and raises its DomainViolation.
    """

    def __init__(self, lib: Library, protocol, g, params, states):
        setup = _setup(protocol, g, params)
        self._setup = setup  # referenced for as long as C reads its arrays
        self._unflatten = protocol.unflatten
        self._advance = lib.advance
        self._draw = lib.draw
        if isinstance(states, np.random.Generator):
            self._states = np.empty((params.n, len(setup.lo)), dtype=np.uint64)
            states_at = self._states.ctypes.data
            _draw_with(lib.draw_states, states, *setup.bounds, len(setup.lo), params.n, states_at)
            outside = (self._states - setup.lo) > setup.top  # below lo wraps around above top
            if outside.any():
                bad = self._states[outside.any(axis=1)][0]
                protocol.validate_state(protocol.unflatten(bad.tolist()), params)
        else:
            self._states = np.array([protocol.flatten(s) for s in states], dtype=np.uint64)
            states_at = self._states.ctypes.data
        self._block = np.empty(_BLOCK, dtype=np.int64)
        self._block_at = self._block.ctypes.data
        self._drawn = self._block[:0]  # the latest block draw() gave, a prefix of _block
        self._hit = ctypes.c_int64()
        self._hit_at = ctypes.addressof(self._hit)
        self._args = (*setup.pointers, states_at)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The next ``size`` (at most ``engine._BLOCK``) pair indices, drawn in C into a buffer."""
        block = self._drawn = self._block[:size]
        _draw_with(self._draw, rng, self._setup.last_pair, len(block), self._block_at)
        return block

    def _run(self, block: np.ndarray, closure: int) -> tuple[int, bool]:
        if block is self._drawn:
            at = self._block_at
        elif block.dtype != np.int64 or not block.flags.c_contiguous:
            raise ValueError("pair indices must be a contiguous int64 array")
        else:
            at = block.ctypes.data
        done = self._advance(*self._args, at, len(block), closure, self._hit_at)
        return done, bool(self._hit.value)

    def converge(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 0)

    def closure(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 1)

    def states(self) -> list:
        return [self._unflatten(row) for row in self._states.tolist()]
