"""The CPUs of the process: one thread pool and the lanes that use it.

The package has one thread pool, of one thread fewer than the CPUs this
process may run on (`usable_cpus`), used through `spread(fn, items, width)`:
[fn(item) for item in items] in `width` lanes, lane j taking items j,
j + width, ..., lane 0 on the calling thread and each other lane one task on
the pool. A caller runs itself the lanes that have not started before it
waits on the running ones, so a lane that calls `spread` again cannot
deadlock, and while the pool's threads are busy a nested call runs all its
lanes on the calling thread. A lane stops at its first exception, and
`spread` raises that of the lowest failing item, as a serial loop would.

Importing the package sets the OpenBLAS that numpy bundles to one thread
(`_pin_blas`), overriding `OPENBLAS_NUM_THREADS`, so the lanes are the only
parallelism in the process: a lane's matrix products stay on its own CPU,
and no more threads compute than the process has CPUs.

This module imports no other `patchcc` module.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (so `taskset` and cpusets count), else all of the
    machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the threads that run `spread`'s lanes beside the calling thread, which
# works rather than waits: under glibc each thread that allocates gets its own
# malloc arena, which costs resident memory, so cpus - 1 threads are the
# fewest that fill the CPUs. They start on first use, so a one-CPU process
# makes none.
_POOL = ThreadPoolExecutor(max_workers=max(1, usable_cpus() - 1), thread_name_prefix="patchcc")


def _pin_blas() -> None:
    """Set the OpenBLAS that numpy bundles to one thread, whatever
    `OPENBLAS_NUM_THREADS` says, so that `spread`'s lanes are the only
    parallelism in the process. OpenBLAS's own threads busy-wait after each
    large product they share and take the cores the next lanes need. The
    library is the wheel's `numpy.libs` one, or `numpy/.dylibs` on macOS;
    where numpy bundles none (an MKL or Accelerate build) or the library has
    no known setter, nothing is changed. Never raises."""
    here = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


_pin_blas()


def _lane(fn, items):
    """fn over items in order up to the first exception: (results, that
    exception or None)."""
    results = []
    for item in items:
        try:
            results.append(fn(item))
        except Exception as exc:
            return results, exc
    return results, None


def spread(fn, items, width: int | None = None) -> list:
    """[fn(item) for item in items], computed in `width` lanes (by default
    `usable_cpus()`; one lane on one CPU), as the module docstring says."""
    items = list(items)
    cpus = usable_cpus()
    # on one CPU the pool's one thread would only take turns with the caller
    width = 1 if cpus == 1 else max(1, min(cpus if width is None else width, len(items)))
    lanes = [items[j::width] for j in range(width)]
    futures = [_POOL.submit(_lane, fn, lane) for lane in lanes[1:]]
    try:
        done = [_lane(fn, lanes[0])]
        ran = [_lane(fn, lane) if future.cancel() else None
               for future, lane in zip(futures, lanes[1:])]
        done += [mine or future.result() for mine, future in zip(ran, futures)]
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    failures = [(j + len(results) * width, exc)
                for j, (results, exc) in enumerate(done) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [done[i % width][0][i // width] for i in range(len(items))]
