"""Worker-pool executor: order stability, serial vs process runs, error paths."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ReproError, SerializationError, ValidationError
from repro.parallel.executor import effective_n_jobs, pool_map


def _square(x):
    return x * x


def _sleepy_negate(x):
    # Later items sleep less, so a pool finishes them first; pool_map must
    # still return results in input order.
    time.sleep(0.03 / (1 + x))
    return -x


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x


def _pid(_):
    return os.getpid()


class TestEffectiveNJobs:
    def test_positive_passthrough(self):
        assert effective_n_jobs(1) == 1
        assert effective_n_jobs(7) == 7

    def test_minus_one_is_cpu_count(self):
        assert effective_n_jobs(-1) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_rejects_other_non_positive(self, bad):
        with pytest.raises(ValidationError):
            effective_n_jobs(bad)


class TestPoolMap:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_matches_list_comprehension(self, n_jobs):
        items = list(range(10))
        assert pool_map(_square, items, n_jobs=n_jobs) == [
            _square(i) for i in items
        ]

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_order_stable_under_out_of_order_completion(self, n_jobs):
        items = list(range(8))
        result = pool_map(_sleepy_negate, items, n_jobs=n_jobs)
        assert result == [-i for i in items]

    def test_empty_items(self):
        assert pool_map(_square, [], n_jobs=4) == []

    def test_more_jobs_run_in_worker_processes(self):
        pids = pool_map(_pid, list(range(6)), n_jobs=2)
        assert os.getpid() not in pids

    def test_single_item_runs_inline(self):
        assert pool_map(_pid, [0], n_jobs=4) == [os.getpid()]

    def test_inline_runs_pickle_nothing(self):
        # One job or one item never crosses a process boundary, so an
        # unpicklable closure is fine there.
        offset = 10
        assert pool_map(lambda x: x + offset, [1, 2], n_jobs=1) == [11, 12]
        assert pool_map(lambda x: x + offset, [5], n_jobs=4) == [15]

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_worker_exception_propagates(self, n_jobs):
        with pytest.raises(ValueError, match="boom at 3"):
            pool_map(_explode_on_three, list(range(6)), n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_unpicklable_fn_raises_typed_error(self, n_jobs):
        offset = 10
        with pytest.raises(SerializationError, match="process pool"):
            pool_map(lambda x: x + offset, list(range(4)), n_jobs=n_jobs)

    def test_unpicklable_item_raises_typed_error(self):
        items = [1, threading.Lock(), 3]
        with pytest.raises(ReproError, match="process pool"):
            pool_map(_square, items, n_jobs=2)
