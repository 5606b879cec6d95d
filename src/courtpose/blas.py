"""Run small dense linear algebra on one OpenBLAS thread.

OpenBLAS splits even small products and factorisations, such as the skin
fit's 105 x 105 normal equations, over all of its threads. Where the cores
are shared (``--jobs`` workers that each bring a full thread pool, or other
programs on the host) a split call waits until its other threads are
scheduled, so it is slower and its time erratic: under
``courtpose pipeline --jobs 2`` on a two-vCPU Xeon virtual machine the skin
stage took 0.4-0.9 s per scene, against 0.05 s in one process.

A ``--jobs`` run pins the count in the parent before the workers fork, and
``single_thread`` calls no setter for a library already on one thread: a
forked child that calls the setter, even to the count it has, starts
OpenBLAS's thread pool again. Without both, each of two workers on the
two-vCPU machine above started one thread per library, its first of
scenes 5000-5007 took 0.09-0.19 s of wall time, against 0.02-0.06 s for
its later scenes, and the two used 0.50-0.66 s of CPU; with them a worker
starts none, its first scene takes 0.05-0.07 s and the two use 0.34-0.40 s
(6 runs each).

Only OpenBLAS builds that export their thread-count functions are handled
(numpy's and scipy's wheels do). With another BLAS, or where the loaded
libraries cannot be listed, ``single_thread`` does nothing.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

# (get, set) thread-count symbols: the scipy-openblas wheels (64- and
# 32-bit integer builds), then plain OpenBLAS
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _controls() -> tuple:
    """(get, set) of every OpenBLAS loaded at the first call."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found.append((get, set_))
            break
    return tuple(found)


@contextmanager
def single_thread():
    """Run the block on one OpenBLAS thread; the previous counts come back
    after it. The count is process-wide, not per Python thread. A library
    already on one thread is left alone: in a forked child the setter starts
    OpenBLAS's thread pool again, even when it sets the count it has."""
    changed = [(set_, n) for get, set_ in _controls() if (n := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, n in changed:
            set_(n)
