import pytest

import bowl.rng
from bowl.rng import MAX_BATCH, map_batches


def negate(batch):
    return [-x for x in batch]


def recording_pool(monkeypatch, cpus=2):
    """Stand a recorder in for the process pool, with `cpus` CPUs; returns its (max_workers, batches) records.

    The recorder maps in this process, so no process starts whatever `jobs` asks for.
    """
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append((max_workers, []))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            batches = list(batches)
            pools[-1][1].extend(batches)
            return map(fn, batches)

    monkeypatch.setattr(bowl.rng, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(bowl.rng.os, "cpu_count", lambda: cpus)
    return pools


class TestMapBatches:
    def test_keeps_order_with_more_jobs_than_items(self):
        assert map_batches(negate, [3, 1, 2], jobs=8) == [-3, -1, -2]

    def test_runs_in_process_at_one_worker(self):
        def double(batch):  # a local function cannot be pickled, so these calls never reach a pool
            return [2 * x for x in batch]

        assert map_batches(double, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert map_batches(double, [5], jobs=4) == [10]
        assert map_batches(double, [], jobs=4) == []

    @pytest.mark.parametrize("cpus, workers", [(2, [2]), (8, [8]), (1, []), (None, [])])
    def test_no_more_workers_than_cpus(self, monkeypatch, cpus, workers):
        pools = recording_pool(monkeypatch, cpus)
        items = list(range(300))
        assert map_batches(negate, items, jobs=200) == [-x for x in items]
        assert [(w, [len(b) for b in batches]) for w, batches in pools] == [(w, [MAX_BATCH] * 12) for w in workers]

    @pytest.mark.parametrize("n, sizes", [(25, [25]), (26, [13, 13]), (51, [17, 17, 17]), (100, [25] * 4),
                                          (101, [20, 20, 20, 20, 21])])
    def test_batches_are_cut_at_max_batch(self, n, sizes):
        seen = []

        def record(batch):
            seen.append(list(batch))
            return batch

        assert map_batches(record, range(n), jobs=1) == list(range(n))
        assert [len(b) for b in seen] == sizes and max(sizes) <= MAX_BATCH
        assert [x for b in seen for x in b] == list(range(n))  # contiguous, in order

    def test_one_batch_per_worker_below_max_batch(self, monkeypatch):
        pools = recording_pool(monkeypatch, cpus=2)
        assert map_batches(negate, range(3), jobs=2) == [0, -1, -2]
        assert pools == [(2, [range(0, 1), range(1, 3)])]
        monkeypatch.setattr(bowl.rng, "MAX_BATCH", 1)
        pools.clear()
        assert map_batches(negate, range(3), jobs=2) == [0, -1, -2]
        assert pools == [(2, [range(0, 1), range(1, 2), range(2, 3)])]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raise(self, jobs):
        for items in ([1, 2], []):
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                map_batches(negate, items, jobs)
