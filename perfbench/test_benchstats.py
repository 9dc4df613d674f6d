"""Tests of the benchmark's reductions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchstats


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "name": f"s{id_}",
            "start_us": start, "end_us": end}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 1001))  # 1000 samples: rank 990, 10 beyond
        self.assertEqual(benchstats.tail_percentile(samples), (99, 990, 1000))

    def test_falls_back_when_p99_has_too_few_beyond(self):
        samples = list(range(1, 1000))  # 999 samples: rank 990, 9 beyond
        p, value, n = benchstats.tail_percentile(samples)
        self.assertEqual((p, value, n), (90, 900, 999))

    def test_median_only_for_small_runs(self):
        samples = [5.0, 1.0, 4.0] + [2.0] * 17  # 20 samples: rank 10
        self.assertEqual(benchstats.tail_percentile(samples), (50, 2.0, 20))

    def test_none_when_nothing_has_ten_beyond(self):
        self.assertIsNone(benchstats.tail_percentile([1.0] * 19))

    def test_nearest_rank_does_not_interpolate(self):
        self.assertEqual(benchstats.nearest_rank([4, 1, 3, 2], 50), 2)
        self.assertEqual(benchstats.nearest_rank([4, 1, 3, 2], 100), 4)
        self.assertEqual(benchstats.nearest_rank([7], 1), 7)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(0, -1, 10, 25)]),
                         {0: 15})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        self.assertEqual(benchstats.self_times(spans)[0], 70)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50)]
        self.assertEqual(benchstats.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130)]
        self.assertEqual(benchstats.self_times(spans)[0], 90)

    def test_grandchildren_belong_to_their_own_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 0, 20)]
        selfs = benchstats.self_times(spans)
        self.assertEqual((selfs[0], selfs[1], selfs[2]), (50, 30, 20))

    def test_summary_groups_by_path(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 10), span(2, 0, 20, 40)]
        spans[2]["name"] = "s1"
        rows = benchstats.span_summary(spans)
        self.assertEqual(rows["s0/s1"],
                         {"count": 2, "total_us": 30, "self_us": 30})
        self.assertEqual(rows["s0"]["self_us"], 70)


class FailureShare(unittest.TestCase):
    def test_share_is_failed_over_attempted(self):
        self.assertEqual(benchstats.failure_counts(200, 5, True),
                         (200, 5, 0.025))

    def test_failed_check_fails_every_operation(self):
        self.assertEqual(benchstats.failure_counts(200, 5, False),
                         (200, 200, 1.0))

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchstats.failure_counts(0, 0, True)
        with self.assertRaises(ValueError):
            benchstats.failure_counts(10, 11, True)


class Spread(unittest.TestCase):
    def test_quartile_spread_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        # quantiles(n=4), exclusive method: Q1 = 1.5, Q3 = 4.5.
        self.assertAlmostEqual(benchstats.quartile_spread(values), 1.0)


if __name__ == "__main__":
    unittest.main()
