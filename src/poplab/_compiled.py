"""The compiled step: build, load and drive ``_loop.c``.

``library()`` compiles ``_loop.c`` on first use with the system C compiler
(``cc -O2 -shared -fPIC``, in a child process) and loads it with ``ctypes``.
The shared library is cached next to the bytecode in ``poplab/__pycache__/``
under the sha256 of the source, written to a temporary name and moved into
place, so concurrent first uses cannot see a half-written file and an edited
source never loads a stale build.  ``library_for(protocol, params)`` is the
one answer to whether ``_loop.c`` steps a record: ``engine.run_until`` runs
``CompiledLoop``, and ``verifier._pair_tables`` calls ``step_pairs``, only
when it returns the library; otherwise both keep their Python code, which is
also what runs when there is no compiler or the build fails.  The package
imports this module with itself, so that a process's first trial does not
pay for loading it; ``engine`` cannot import it at its top, because this
module imports ``ranking``, which imports ``engine``.
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


def load() -> Library:
    """The entries of the built library; raises OSError when unavailable."""
    lib = ctypes.CDLL(str(_build()))
    advance = lib.poplab_advance
    advance.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    advance.restype = ctypes.c_int64
    step_pairs = lib.poplab_step_pairs
    step_pairs.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    step_pairs.restype = None
    return Library(advance, step_pairs)


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


class CompiledLoop:
    """One run's configuration in C memory, advanced one block of pair indices at a time.

    Same interface as ``engine``'s Python loop: ``converge(block)`` and
    ``closure(block)`` return (pairs consumed, stopped on the condition), and
    ``states()`` the configuration as the protocol's NamedTuples.  A row of
    C memory is one agent's state as ``protocol.flatten`` gives it, in the
    order of ``protocol.fields``.
    """

    def __init__(self, lib: Library, protocol, g, params, states):
        self._unflatten = protocol.unflatten
        self._advance = lib.advance
        # The arrays stay referenced by self for as long as C reads them.
        self._cfg = _header(protocol, g.n, params)
        self._pairs, self._adj_start, self._adj = g.pair_arrays
        self._states = np.array([protocol.flatten(s) for s in states], dtype=np.uint64)
        self._hit = np.zeros(1, dtype=np.int64)
        self._args = tuple(a.ctypes.data for a in (
            self._cfg, self._pairs, self._adj_start, self._adj, self._states))

    def _run(self, block: np.ndarray, closure: int) -> tuple[int, bool]:
        if block.dtype != np.int64 or not block.flags.c_contiguous:
            raise ValueError("pair indices must be a contiguous int64 array")
        done = self._advance(*self._args, block.ctypes.data, len(block), closure,
                             self._hit.ctypes.data)
        return done, bool(self._hit[0])

    def converge(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 0)

    def closure(self, block: np.ndarray) -> tuple[int, bool]:
        return self._run(block, 1)

    def states(self) -> list:
        return [self._unflatten(row) for row in self._states.tolist()]
