"""Independent units of work mapped over forked worker processes.

A unit is one hyper-episode, one seed's run or one FVI sweep cell. Each unit
owns its random streams, so its result does not depend on which process
computes it or on how many run beside it. Workers are forked: they inherit the
imported modules and start at once, and the pool forks them before it starts
its own thread.
BLAS must run one thread per process (OPENBLAS_NUM_THREADS=1 before numpy
loads) for runs to be bit-reproducible and for the fork to be safe.
"""

from __future__ import annotations

import os


def map_units(fn, items) -> list:
    """[fn(x) for x in items], in input order, computed on
    min(len(items), usable cores) forked worker processes.

    Runs inline when that count is 1, or inside a worker already, so nested
    maps do not multiply processes. `fn` (a module-level function or a
    functools.partial of one), the items and the results must pickle. An
    exception raised by a unit propagates as itself; a worker that dies
    raises BrokenProcessPool. Every worker has exited when this returns or
    raises.
    """
    items = list(items)
    n_workers = min(len(items), len(os.sched_getaffinity(0)))
    if n_workers > 1:
        # imported here: at module level they add ~1.1 MB to every process
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.parent_process() is None:
            pool = ProcessPoolExecutor(n_workers,
                                       mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(fn, items))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [fn(x) for x in items]
