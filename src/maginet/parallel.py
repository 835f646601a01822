"""The library's one rule for parallel work: a map over forked worker processes."""

from __future__ import annotations

import os

_job = None   # (fn, items) of the fork_map call that forked this worker process


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(fn, items) -> None:
    global _job
    _job = (fn, items)


def _call(index: int):
    fn, items = _job
    return fn(items[index])


def fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on one forked worker process per usable
    CPU, at most one per item. Workers inherit ``fn`` and the items, so only an
    index goes out and only a result comes back, and neither is pickled. Runs
    in this process when that makes fewer than two workers, in a process that
    ``multiprocessing`` started (its siblings hold the other CPUs), or without
    the fork start method. Results come in item order; the first failing item's
    error is raised with the type and message one process would raise, items
    not yet started are cancelled, and every worker is joined before this
    returns or raises."""
    workers = min(usable_cpus(), len(items))
    if workers > 1:
        import multiprocessing   # deferred, as is the pool: only a pool needs them
        if ("fork" in multiprocessing.get_all_start_methods()
                and multiprocessing.parent_process() is None):
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_start_worker, initargs=(fn, items)) as pool:
                return list(pool.map(_call, range(len(items))))
    return [fn(item) for item in items]
