"""One worker-pool API: serial for one job, a process pool otherwise.

:func:`pool_map` is the single entry point: it maps a function over a list
of items and returns the results **in input order**, in whatever order the
tasks complete.  One job (or at most one item) runs inline in the calling
process; more jobs run on a process pool.

Determinism contract
--------------------
The executor never reorders, drops or retries work.  ``pool_map(fn, items)``
returns ``[fn(items[0]), fn(items[1]), ...]`` exactly; a worker exception
cancels the run and reaches the caller with its own type.  Combined with
pure ``fn`` this makes every ``n_jobs`` byte-identical to the serial run.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Sequence

from repro.errors import SerializationError
from repro.obs.config import record_counter, span
from repro.utils.validation import check_positive_int

__all__ = ["effective_n_jobs", "pool_map"]


def effective_n_jobs(n_jobs: int) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    ``-1`` means one worker per available CPU; positive values are taken
    as-is.  Anything else is rejected.
    """
    if n_jobs == -1:
        return os.cpu_count() or 1
    return check_positive_int(n_jobs, name="n_jobs")


def _call_pickled(task: bytes) -> Any:
    fn, item = pickle.loads(task)
    return fn(item)


def pool_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    n_jobs: int = 1,
) -> List[Any]:
    """Map ``fn`` over ``items``, preserving order.

    Returns ``[fn(item) for item in items]``: exactly that list
    comprehension when ``n_jobs`` resolves to 1 or there is at most one
    item, otherwise the same list computed on a process pool.  Each
    ``(fn, item)`` pair is pickled in the calling process first, so work
    that cannot cross the process boundary raises
    :class:`~repro.errors.SerializationError` before any worker starts.
    """
    jobs = effective_n_jobs(n_jobs)
    with span("parallel.map", n_jobs=jobs, n_tasks=len(items)):
        record_counter("parallel.tasks", len(items))
        if jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            tasks = [pickle.dumps((fn, item)) for item in items]
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SerializationError(
                f"cannot send {getattr(fn, '__qualname__', fn)!r} and its "
                f"items to a process pool: {type(exc).__name__}: {exc}"
            ) from exc
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(_call_pickled, tasks))
