"""The compiled step loop: build, load and drive ``_loop.c``.

``library()`` compiles ``_loop.c`` on first use with the system C compiler
(``cc -O2 -shared -fPIC``, in a child process) and loads it with ``ctypes``.
The shared library is cached next to the bytecode in ``poplab/__pycache__/``
under the sha256 of the source, written to a temporary name and moved into
place, so concurrent first uses cannot see a half-written file and an edited
source never loads a stale build.  When there is no compiler or the build
fails, ``library()`` returns None and ``engine.run_until`` keeps its Python
loop.  ``engine.run_until`` is the only caller.  The package imports this
module with itself, so that a process's first trial does not pay for loading
it; ``engine`` cannot import it at its top, because this module imports
``ranking``, which imports ``engine``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
from pathlib import Path

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


def load():
    """``poplab_advance`` from the built library; raises OSError when unavailable."""
    advance = ctypes.CDLL(str(_build())).poplab_advance
    advance.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    advance.restype = ctypes.c_int64
    return advance


@functools.cache
def library():
    """``load()``, once per process, or None when the library cannot be built or loaded."""
    try:
        return load()
    except OSError:
        return None


def _params_row(params) -> list[int]:
    """The params in the C header, after n and the protocol flag; an absent one is 0."""
    return [params.tmax, params.pmax or 0, params.emax or 0, params.m_known or 0]


def fits(params) -> bool:
    """Do n and every param of the C header fit the C fields?"""
    return params.n <= MAX_AGENTS and all(0 <= v < MAX_PARAM for v in _params_row(params))


class CompiledLoop:
    """One run's configuration in C memory, advanced one block of pair indices at a time.

    Same interface as ``engine``'s Python loop: ``converge(block)`` and
    ``closure(block)`` return (pairs consumed, stopped on the condition), and
    ``states()`` the configuration as the protocol's NamedTuples.  A row of
    C memory is one agent's state as ``protocol.flatten`` gives it, in the
    order of ``protocol.fields``.
    """

    def __init__(self, advance, protocol, g, params, states):
        self._unflatten = protocol.unflatten
        self._advance = advance
        # The arrays stay referenced by self for as long as C reads them.
        self._cfg = np.array(
            [g.n, protocol is PROTOCOLS["neighbor"], *_params_row(params)], dtype=np.int64)
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
