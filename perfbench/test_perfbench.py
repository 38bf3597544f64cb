"""Self-test of the benchmark's own code (no rbscat computation).

    python3 -m unittest discover perfbench
"""

import copy
import json
import os
import statistics
import sys
import types
import unittest

from run import _gate
from spans import (LAYERS, Tracer, inclusive_times, layer_metrics,
                   merge_traces, metric_units, self_times)
from stats import summary
from workloads import (INSTANCES, WORKLOADS, failure_reason, load_record,
                       ordered_instances)

HERE = os.path.dirname(os.path.abspath(__file__))
GUARDS = {"max_simplices_per_degree": 100, "max_assoc_triples": 1000,
          "max_group_order": 10}


def _outcome(iid, record):
    return {"id": iid, "verdict": record[iid]["verdict"],
            "measured": copy.deepcopy(record[iid]["measured"])}


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        s = summary(values)
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]),
                         (q1, med, q3, 10))
        self.assertEqual(s["median"], statistics.median(values))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(summary([2.5]),
                         {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            summary([])


class SpanArithmeticTest(unittest.TestCase):
    # root 0..10 holds a 1..4 (which holds b 2..3) and a second a 5..9
    SPANS = [["checks.x", 0.0, 10.0, -1],
             ["fincat.validate", 1.0, 4.0, 0],
             ["homology.nerve", 2.0, 3.0, 1],
             ["fincat.validate", 5.0, 9.0, 0]]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_root_duration(self):
        self.assertEqual(sum(self_times(self.SPANS)), 10.0)

    def test_inclusive_time_skips_spans_nested_in_the_same_key(self):
        spans = [["fincat.fiber", 0.0, 6.0, -1],       # strict_fiber
                 ["fincat.fiber", 1.0, 5.0, 0],        # its right_fiber
                 ["fincat.validate", 2.0, 4.0, 1],
                 ["fincat.fiber", 7.0, 8.0, -1]]
        self.assertEqual(inclusive_times(spans),
                         {"fincat.fiber": 7.0, "fincat.validate": 2.0})

    def test_merged_traces_keep_each_child_tree(self):
        one = {"spans": self.SPANS, "counts": {"rings.flags": 2},
               "peaks": {"gl_order": 6}}
        two = {"spans": [["checks.y", 0.0, 2.0, -1],
                         ["rbs.build", 0.5, 1.5, 0]],
               "counts": {"rings.flags": 3, "rbs.morphisms": 7},
               "peaks": {"gl_order": 4}}
        merged = merge_traces([one, two])
        self.assertEqual([s[3] for s in merged["spans"]],
                         [-1, 0, 1, 0, -1, 4])
        self.assertEqual(self_times(merged["spans"]),
                         self_times(self.SPANS) + [1.0, 1.0])
        self.assertEqual(merged["counts"],
                         {"rings.flags": 5, "rbs.morphisms": 7})
        self.assertEqual(merged["peaks"], {"gl_order": 6})

    def test_layer_metrics_cover_every_metric_with_zero_for_idle_layers(self):
        spans = self.SPANS + [["rbs.build", 10.0, 16.0, -1],
                              ["rbs.gl_table", 11.0, 12.0, 4],
                              ["fincat.validate", 12.0, 15.0, 4]]
        m = layer_metrics(spans, {"fincat.assoc_triples": 50},
                          {"assoc_triples": 250, "gl_order": 5}, GUARDS)
        self.assertEqual(set(m) | {"trace.overhead_ratio"}, set(metric_units()))
        self.assertEqual(m["fincat.validate.s"], 10.0)
        self.assertEqual(m["fincat.validate.calls"], 3)
        self.assertEqual(m["fincat.self_s"], 9.0)
        self.assertEqual(m["rbs.build.s"], 6.0)
        self.assertEqual(m["rbs.build.self_s"], 2.0)
        self.assertEqual(m["rbs.self_s"], 3.0)
        self.assertEqual(m["checks.self_s"], 3.0)
        self.assertEqual(m["homology.self_s"], 1.0)
        self.assertEqual(m["resolution.tor.s"], 0.0)
        self.assertEqual(m["resolution.tor.calls"], 0)
        self.assertEqual(m["toolkit.shortcut_ratio"], 0.0)
        self.assertEqual(m["fincat.assoc_triples"], 50)
        self.assertEqual(m["guards.assoc_headroom"], 0.25)
        self.assertEqual(m["guards.group_headroom"], 0.5)
        self.assertEqual(m["guards.simplices_headroom"], 0.0)
        self.assertEqual(sum(m[layer + ".self_s"] for layer in LAYERS), 16.0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        core = types.ModuleType("fakepkg.core")
        user = types.ModuleType("fakepkg.user")

        def leaf(x):
            return x + 1

        def outer(x):
            return core.leaf(x) * 2

        class Box:
            def __init__(self, v):
                self.v = v

        core.leaf, core.outer, core.Box = leaf, outer, Box
        user.leaf = leaf                       # "from .core import leaf"
        self.mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
        sys.modules.update(self.mods)
        self.core, self.user, self.leaf = core, user, leaf

    def tearDown(self):
        for name in self.mods:
            sys.modules.pop(name, None)

    def test_rebinds_every_import_and_restores(self):
        tr = Tracer()
        seen = []
        tr.install([("core.leaf", "fakepkg.core", "leaf",
                     lambda t, r, a, k: t.add("core.leaves", r)),
                    ("core.outer", "fakepkg.core", "outer", None),
                    ("core.box", "fakepkg.core", "Box.__init__",
                     lambda t, r, a, k: seen.append(a[0].v))],
                   package="fakepkg")
        self.assertEqual(self.user.leaf(1), 2)
        self.assertEqual(self.core.outer(3), 8)
        self.core.Box(7)
        tr.uninstall()
        self.assertIs(self.core.leaf, self.leaf)
        self.assertIs(self.user.leaf, self.leaf)
        self.assertEqual(self.user.leaf(1), 2)
        keys = [(s[0], s[3]) for s in tr.spans]
        self.assertEqual(keys, [("core.leaf", -1), ("core.outer", -1),
                                ("core.leaf", 1), ("core.box", -1)])
        self.assertEqual(tr.counts, {"core.leaves": 6})
        self.assertEqual(seen, [7])
        self.assertTrue(all(s[1] <= s[2] for s in tr.spans))

    def test_span_closes_when_the_call_raises(self):
        tr = Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tr.call("checks.boom", boom)
        self.assertEqual(tr.call("checks.ok", len, ([1, 2],)), 2)
        self.assertEqual([s[3] for s in tr.spans], [-1, -1])


class RecordGateTest(unittest.TestCase):
    def setUp(self):
        self.record = load_record()

    def test_record_covers_every_instance(self):
        self.assertEqual(set(self.record), set(INSTANCES))

    def test_frozen_payload_passes(self):
        for iid in INSTANCES:
            self.assertIsNone(failure_reason(self.record,
                                             _outcome(iid, self.record)))

    def test_altered_payload_fails(self):
        out = _outcome("pi1-Z4-2", self.record)
        out["measured"]["H1_torsion"] = [4]
        self.assertIn("payload", failure_reason(self.record, out))

    def test_tuple_payload_equals_its_json_form(self):
        out = _outcome("pi1-Z4-2", self.record)
        out["measured"]["H1_torsion"] = (2,)
        self.assertIsNone(failure_reason(self.record, out))

    def test_failed_verdict_and_raise_fail(self):
        out = _outcome("proper-p-F3-2", self.record)
        out["verdict"] = "inconclusive"
        self.assertIsNotNone(failure_reason(self.record, out))
        raised = {"id": "pi1-F3-2",
                  "error": "Traceback ...\nrbscat.guards.GuardExceeded: big"}
        self.assertIn("GuardExceeded", failure_reason(self.record, raised))

    def test_gate_counts_failures_and_keeps_going(self):
        ids = ordered_instances("fincat-build", 3)
        good = {"outcomes": [_outcome(iid, self.record) for iid in ids]}
        bad = copy.deepcopy(good)
        bad["outcomes"][2]["measured"] = {"witness": "(0, 1)"}
        attempted, failed, failures = _gate(self.record, [good, bad])
        self.assertEqual((attempted, failed), (2 * len(ids), 1))
        self.assertEqual(failures[0]["id"], ids[2])


class DefinitionTest(unittest.TestCase):
    def test_seed_only_permutes(self):
        for name, rows in WORKLOADS.items():
            ids = sorted(iid for iid, _, _ in rows)
            self.assertEqual(sorted(ordered_instances(name, 11)), ids)
            self.assertEqual(ordered_instances(name, 11),
                             ordered_instances(name, 11))

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         metric_units())
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"verdict_cpu_s", "setup_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
