import operator

import bowl.rng
from bowl.rng import ordered_map


class TestOrderedMap:
    def test_keeps_order_with_more_jobs_than_items(self):
        assert ordered_map(operator.neg, [3, 1, 2], jobs=8) == [-3, -1, -2]

    def test_runs_in_process_at_one_job_or_one_item(self):
        # A lambda cannot be pickled, so these calls never reach a pool.
        assert ordered_map(lambda x: 2 * x, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert ordered_map(lambda x: 2 * x, [5], jobs=4) == [10]
        assert ordered_map(lambda x: 2 * x, [], jobs=4) == []

    def test_no_more_workers_than_cpus(self, monkeypatch):
        # A recorder stands in for the pool, so no process starts whatever `jobs` asks for.
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bowl.rng, "ProcessPoolExecutor", Recorder)
        items = list(range(300))
        for cpus, expected in ((2, [2]), (8, [8]), (1, []), (None, [])):
            pools.clear()
            monkeypatch.setattr(bowl.rng.os, "cpu_count", lambda cpus=cpus: cpus)
            assert ordered_map(operator.neg, items, jobs=200) == [-x for x in items]
            assert pools == expected, cpus
