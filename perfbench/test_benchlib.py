"""Unit tests of the benchmark's helpers: python3 perfbench/test_benchlib.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 1001))  # 1..1000; input order must not matter
        xs.reverse()
        self.assertEqual(benchlib.tail_percentile(xs, 0.5), (500, 500))
        self.assertEqual(benchlib.tail_percentile(xs, 0.99), (990, 10))

    def test_ten_beyond_rule(self):
        # 999 samples leave only 9 beyond the p99: refused
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(999)), 0.99)
        # the rule holds for every percentile, the median included
        self.assertEqual(benchlib.tail_percentile(list(range(21)), 0.5),
                         (10, 10))
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([3, 1, 2], 0.5)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([], 0.5)

    def test_windows(self):
        # two callers, each sending back to back: 10 ns round trips
        starts = [10 * i for i in range(2000)] + [10 * i for i in range(2000)]
        lats = [10] * 4000
        wins = benchlib.windows(starts, lats, 4)
        self.assertEqual(len(wins), 4)
        for rate, p50, p99 in wins:
            self.assertAlmostEqual(rate, 2e8, delta=2e8 * 0.01)
            self.assertEqual((p50, p99), (10, 10))

    def test_decile(self):
        xs = list(range(1, 12))  # 1..11
        self.assertEqual(benchlib.decile(xs, 1), 1.2)
        self.assertEqual(benchlib.decile(xs, 9), 10.8)

    def test_best_of(self):
        self.assertEqual(benchlib.best_of([[3, 5, 9], [4, 1, 9], [6, 2, 8]]),
                         [3, 1, 8])
        with self.assertRaises(ValueError):
            benchlib.best_of([[1, 2], [1]])


class Spans(unittest.TestCase):
    # (idx, name, start, end, parent, id)
    SPANS = [
        (0, "pass", 0, 100, -1, 0),
        (1, "view", 5, 95, 0, 0),
        (2, "graph.closure", 10, 30, 1, 0),
        (3, "core.validate", 30, 50, 1, 0),
        (4, "core.correct", 60, 90, 1, 0),
        (5, "inner", 70, 80, 4, 0),
    ]

    def test_self_times(self):
        selfs = benchlib.self_times(self.SPANS)
        self.assertEqual(selfs, {0: 10, 1: 20, 2: 20, 3: 20, 4: 20, 5: 10})

    def test_overlapping_children_counted_once(self):
        spans = [(0, "a", 0, 100, -1, 0), (1, "b", 10, 60, 0, 0),
                 (2, "c", 40, 80, 0, 0), (3, "d", 90, 120, 0, 0)]
        # children cover [10, 80) and [90, 100) inside the parent
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 70 - 10)

    def test_breakdown_sums_to_total(self):
        total, layers, residual = benchlib.breakdown(
            self.SPANS, ["graph.closure", "core.validate", "core.correct"])
        self.assertEqual(total, 100)
        self.assertEqual(layers, {"graph.closure": 20, "core.validate": 20,
                                  "core.correct": 20})
        # pass and view self time, plus the unnamed inner span
        self.assertEqual(residual, 10 + 20 + 10)
        self.assertEqual(sum(layers.values()) + residual, total)

    def test_breakdown_needs_one_root(self):
        with self.assertRaises(ValueError):
            benchlib.breakdown(self.SPANS + [(6, "x", 0, 1, -1, 0)], [])


class Proc(unittest.TestCase):
    STATUS = ("Name:\twolves.exe\nState:\tS (sleeping)\n"
              "VmPeak:\t  412000 kB\nVmSize:\t  400000 kB\n"
              "VmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n")

    def test_vmhwm(self):
        self.assertEqual(benchlib.parse_vmhwm_kb(self.STATUS), 123456)
        with self.assertRaises(ValueError):
            benchlib.parse_vmhwm_kb("Name:\tx\nVmRSS:\t 1 kB\n")

    def test_cpu_ticks(self):
        fields = ["S", "1", "2", "3", "0", "-1", "4194560", "10", "0", "0",
                  "0", "250", "75", "0", "0", "20", "0", "5"]
        stat = "4242 (wolves.exe) " + " ".join(fields) + "\n"
        self.assertEqual(benchlib.parse_cpu_ticks(stat), 325)
        # a command name holding spaces and parentheses
        odd = "4242 (a) b (c) " + " ".join(fields) + "\n"
        self.assertEqual(benchlib.parse_cpu_ticks(odd), 325)

    def test_steal_ticks(self):
        stat = ("cpu  1092591 562 69416 3226524 5766 0 3738 50755 0 0\n"
                "cpu0 546000 281 34708 1613262 2883 0 1869 25377 0 0\n")
        self.assertEqual(benchlib.parse_steal_ticks(stat), 50755)
        # kernels too old to report steal
        self.assertEqual(benchlib.parse_steal_ticks("cpu 1 2 3 4\n"), 0)

    def test_own_process(self):
        pid = os.getpid()
        with open("/proc/%d/status" % pid) as f:
            self.assertGreater(benchlib.parse_vmhwm_kb(f.read()), 0)
        with open("/proc/%d/stat" % pid) as f:
            self.assertGreaterEqual(benchlib.parse_cpu_ticks(f.read()), 0)


if __name__ == "__main__":
    unittest.main()
