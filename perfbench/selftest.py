"""Self-tests of the benchmark itself (not of cmfactor).

    python3 perfbench/selftest.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from checks import summarize  # noqa: E402
from tracer import Tracer, coverage, layer_stats, self_times  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate, op_key  # noqa: E402


class SelfTime(unittest.TestCase):

    def test_synthetic_spans(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7]
        spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
                 ("g", 2.0, 3.0, 1, 0), ("b", 5.0, 7.0, 0, 0)]
        self.assertEqual(self_times(spans), [5.0, 2.0, 1.0, 2.0])
        self.assertAlmostEqual(coverage(spans, 10.0), 0.5)

    def test_recursion_counts_outermost_total_once(self):
        spans = [("f", 0.0, 10.0, -1, 0), ("f", 2.0, 5.0, 0, 0)]
        st = layer_stats(spans)["f"]
        self.assertEqual(st, {"calls": 2, "self_s": 10.0, "total_s": 10.0})

    def test_nested_wrapped_calls(self):
        tracer = Tracer(layers=())

        def inner(x):
            return x + 1

        inner_t = tracer.wrap("m.inner", inner)

        def outer(x):
            return inner_t(x) + inner_t(x)

        self.assertEqual(tracer.wrap("m.outer", outer)(1), 4)
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["m.outer", "m.inner", "m.inner"])
        self.assertEqual(parents, [-1, 0, 0])
        own = self_times(tracer.spans)
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(sum(own), total, places=9)


class Pacing(unittest.TestCase):

    def test_uniformly_slower_host_gives_same_paced_times(self):
        def report(k):
            return run.paced({"op_s": [0.5 * k, 0.25 * k],
                              "pace": [1e-3 * k, 1e-3 * k, 2e-3 * k]},
                             0.1 * k, 1.5e-3 * k)

        fast, slow = report(1.0), report(1.6)
        for key in ("setup_s", "wall_s"):
            self.assertAlmostEqual(fast[key], slow[key])
        self.assertAlmostEqual(fast["scale"], slow["scale"] * 1.6)
        self.assertEqual(len(fast["op_s"]), 2)
        for a, b in zip(fast["op_s"], slow["op_s"]):
            self.assertAlmostEqual(a, b)
        # the second op straddles a slowdown: it is scaled by the mean pace
        self.assertAlmostEqual(fast["op_s"][1], 0.25 * run.PACE_REF / 1.5e-3)


class TracerInstall(unittest.TestCase):

    def test_absent_layer_and_rebinding(self):
        import cmfactor
        from cmfactor import arithside, quadarith
        original = quadarith.rho
        tracer = Tracer(layers=("quadarith.rho", "numeric.no_such_function",
                                "nosuchmodule.f"))
        tracer.install()
        try:
            self.assertEqual(tracer.absent, ["numeric.no_such_function",
                                             "nosuchmodule.f"])
            # the copy arithside imported with "from ... import" is wrapped
            self.assertIsNot(arithside.rho, original)
            self.assertIs(arithside.rho, quadarith.rho)
            cmfactor.gz_rhs(-3, -4)
            self.assertGreater(layer_stats(tracer.spans)["quadarith.rho"]
                               ["calls"], 0)
        finally:
            tracer.uninstall()
        self.assertIs(arithside.rho, original)
        self.assertIs(quadarith.rho, original)


class Generators(unittest.TestCase):

    def test_deterministic_per_seed_and_different_across_seeds(self):
        for name in WORKLOADS:
            ops = generate(name, 0)
            self.assertEqual(ops, generate(name, 0))
            self.assertNotEqual(ops, generate(name, 1))

    def test_composition_fixed_across_seeds(self):
        for name in WORKLOADS:
            kinds = [sorted(op[0] if op[0] != "borcherds" else op[1]
                            for op in generate(name, seed))
                     for seed in range(5)]
            self.assertTrue(all(k == kinds[0] for k in kinds), name)

    def test_warmup_shares_nothing_with_ops(self):
        for name in WORKLOADS:
            warm = WARMUP[name]
            for seed in range(5):
                for op in generate(name, seed):
                    if warm[0] == "borcherds":
                        self.assertNotEqual(op[2:], warm[2:])
                    else:
                        self.assertFalse(set(op[1:]) & set(warm[1:]), op)


class OutputCheck(unittest.TestCase):

    def test_altered_gz_result_fails(self):
        import cmfactor
        op = ["gz", -7, -8]
        report = cmfactor.gz_verify(-7, -8)
        problems, digest, _ = summarize(op, report)
        self.assertEqual(problems, [])
        report.product_integer *= 3
        bad_problems, bad_digest, _ = summarize(op, report)
        self.assertTrue(bad_problems)
        self.assertNotEqual(bad_digest, digest)

    def test_altered_rhs_and_borcherds_results_fail(self):
        import cmfactor
        op = ["gz_rhs", -7, -8]
        rhs = cmfactor.gz_rhs(-7, -8)
        _, digest, _ = summarize(op, rhs)
        p = next(iter(rhs.terms))
        rhs.add(p, 1)
        self.assertNotEqual(summarize(op, rhs)[1], digest)
        op = ["borcherds", "eta1", 3, 3]
        self.assertTrue(summarize(op, (False, [((1, 1), 2, 3)]))[0])

    def test_reference_mismatch_counts_as_failed(self):
        op = ["gz_rhs", -7, -8]
        rep = {"results": [[[], "abc", {}]]}
        self.assertEqual(run.check_outputs([op], [rep], {op_key(op): "abc"}),
                         0)
        self.assertEqual(run.check_outputs([op], [rep, rep],
                                           {op_key(op): "xyz"}), 2)


class Contract(unittest.TestCase):

    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
