import operator

from bowl.rng import ordered_map


class TestOrderedMap:
    def test_keeps_order_with_more_jobs_than_items(self):
        assert ordered_map(operator.neg, [3, 1, 2], jobs=8) == [-3, -1, -2]

    def test_runs_in_process_at_one_job_or_one_item(self):
        # A lambda cannot be pickled, so these calls never reach a pool.
        assert ordered_map(lambda x: 2 * x, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert ordered_map(lambda x: 2 * x, [5], jobs=4) == [10]
        assert ordered_map(lambda x: 2 * x, [], jobs=4) == []
