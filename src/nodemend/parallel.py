"""Independent seeded tasks, fanned out over the CPUs this process may use.

Training has two sets of tasks that share nothing but read-only inputs:
the cross-fit's 2k fold fits, outcome then propensity, mapped as one set
so that no CPU idles between the two nuisances, and the bags of the
forest. Every random draw of a task derives from its own seed, so a
task's result does not depend on which process runs it or when, and the
results are bitwise those of a serial loop.

Workers are forked. The read-only inputs reach them through the pool's
initializer, which under fork is inherited rather than pickled, so only
task indices go out and results come back.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from typing import Any

# (task, state) inside a worker, set by _install
_worker: tuple[Callable[[Any, int], Any], Any] | None = None


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _install(task: Callable[[Any, int], Any], state: Any) -> None:
    global _worker
    _worker = (task, state)


def _run(i: int) -> Any:
    task, state = _worker
    return task(state, i)


def map_tasks(task: Callable[[Any, int], Any], state: Any, count: int) -> list:
    """``[task(state, i) for i in range(count)]``, in task order.

    Runs on min(count, available CPUs) forked workers, or in this process
    when that is one, when fork is unavailable, inside a worker, or when
    other Python threads run: a fork copies only the calling thread, so a
    lock another thread holds would never be released in the child.
    ``state`` is shared read-only; each result is pickled back. An
    exception raised by a task reaches the caller as the same type.
    """
    workers = min(count, available_cpus())
    if workers > 1 and _worker is None and threading.active_count() == 1:
        # imported here, because the pool's modules would cost every
        # process that never trains, such as one `recommend`, about 20 ms
        # and 2 MB of RSS (measured on a 2-vCPU x86-64 VM, Python 3.11)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context, initializer=_install, initargs=(task, state)) as pool:
                return list(pool.map(_run, range(count)))
    return [task(state, i) for i in range(count)]
