"""Self-tests of the end-to-end benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first run builds cobra_perfbench (Release) like run.py does.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(run.PercentileRefused):
            run.percentile(list(range(99)), 0.9)
        self.assertEqual(run.percentile(list(range(100)), 0.9), 89)

    def test_p50_needs_ten_samples_beyond_it(self):
        with self.assertRaises(run.PercentileRefused):
            run.percentile(list(range(19)), 0.5)
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_refused_percentile_ends_the_run(self):
        report = {"workload": "serve", "setup_s": 1.0, "wall_s": 1.0,
                  "cpu_s": 1.0, "client_cpu_s": 0.1,
                  "ops": [{"wall_s": 0.1, "ok": True, "insts": 1}] * 99}
        with self.assertRaises(run.PercentileRefused):
            run.end_to_end(report, 10.0, 99, [1.0])


class MetricTablesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_tables_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
            list(run.END_TO_END.items()))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]],
            list(run.PER_LAYER.items()))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_result_line_carries_every_metric_with_its_unit(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            values = {name: 1.5 for name in table}
            line = json.loads(run.result_line(True, 3, 0, values, table))
            self.assertEqual(set(line),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(
                {k: v["unit"] for k, v in line["metrics"].items()}, table)


class PeakRssTest(unittest.TestCase):
    def test_peak_rss_is_each_childs_own(self):
        big = [sys.executable, "-c",
               "b = bytearray(300 << 20); b[::4096] = b'x' * len(b[::4096])"]
        small = [sys.executable, "-c", "pass"]
        _, big_mb = run.run_child(big)
        _, small_mb = run.run_child(small)
        self.assertGreater(big_mb, 300)
        self.assertLess(small_mb, 100)


def program_report(workload, seconds, trace, seed=1, extra=()):
    """Run the built cobra_perfbench directly; returns its report (and spans)."""
    out = os.path.join(run.RUNS_DIR, f"selftest-{workload}-{trace}")
    shutil.rmtree(out, ignore_errors=True)
    try:
        code, rss = run.run_child([
            run.BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", out, *extra])
        if code != 0:
            raise AssertionError(f"cobra_perfbench failed: {code}")
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        events = None
        if trace:
            with open(os.path.join(out, "trace.json")) as f:
                events = json.load(f)["traceEvents"]
        return report, events, rss
    finally:
        shutil.rmtree(out, ignore_errors=True)


def plan(workload, seed):
    res = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--plan"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(res.stdout)


class ProgramTest(unittest.TestCase):
    """Tests that run the built cobra_perfbench on short inputs."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.reports = {w: program_report(w, 2, 0)
                       for w in ("sweep", "search", "serve")}

    def test_untraced_run_prints_every_end_to_end_metric(self):
        report, _, rss = self.reports["sweep"]
        # Pad the short run to the 100 ops a p90 needs.
        padded = dict(report, ops=report["ops"] * (100 // len(report["ops"])
                                                   + 1))
        values = run.end_to_end(padded, rss, len(padded["ops"]),
                                [report["setup_s"]])
        self.assertEqual(list(values), list(run.END_TO_END))
        self.assertTrue(all(v > 0 for v in values.values()))

    def test_setup_only_runs_no_op(self):
        for workload in ("sweep", "search", "serve"):
            report, _, _ = program_report(workload, 2, 0,
                                          extra=["--setup-only"])
            self.assertEqual(report["ops"], [], workload)
            self.assertGreater(report["setup_s"], 0, workload)

    def test_search_latency_has_five_stages_per_search(self):
        # Tiers 0-3 and the frontier: each kind is a fifth of the
        # samples, so p50 and p90 fall inside one kind, not between two.
        report, _, _ = self.reports["search"]
        for op in report["ops"]:
            self.assertEqual(len(op["stages"]), 5, op["id"])
        self.assertEqual(len(run.latency_samples("search", report["ops"])),
                         5 * len(report["ops"]))

    def test_traced_run_prints_every_per_layer_metric(self):
        report, events, _ = program_report("sweep", 2, 1)
        spans = run.SpanSet(events)
        values = run.per_layer(report, spans)
        self.assertEqual(list(values), list(run.PER_LAYER))
        self.assertEqual(report["probe_failures"], 0)
        # Every span nests inside its parent.
        for s in spans.spans:
            if s["parent"] >= 0:
                p = spans.by_id[s["parent"]]
                self.assertGreaterEqual(s["t0"] + 1e-6, p["t0"])
                self.assertLessEqual(s["t0"] + s["dur"],
                                     p["t0"] + p["dur"] + 1e-6)

    def test_output_check_fails_an_op_with_one_field_changed(self):
        for workload, (report, _, _) in self.reports.items():
            op = report["ops"][0]
            golden = {op["id"]: run.digest(workload, op)}
            _, failed, _ = run.check_ops(workload, [op], golden)
            self.assertEqual(failed, 0, workload)
            bad = copy.deepcopy(op)
            out = bad["output"]
            if workload == "sweep":
                out["result"]["condMispredicts"] += 1
            elif workload == "search":
                out["frontier_json"] = out["frontier_json"].replace(
                    "preset-b2", "preset-b3", 1)
            else:
                out["result"]["points"][0]["cycles"] += 1
            _, failed, reasons = run.check_ops(workload, [bad], golden)
            self.assertEqual(failed, 1, workload)
            self.assertIn("golden", reasons[0])

    def test_wall_seconds_is_not_pinned(self):
        report, _, _ = self.reports["serve"]
        op = copy.deepcopy(report["ops"][0])
        before = run.digest("serve", op)
        op["output"]["result"]["points"][0]["wall_seconds"] += 1.0
        self.assertEqual(run.digest("serve", op), before)

    def test_seed_reaches_only_the_generators(self):
        # Fields each workload's generator draws; everything else in a
        # plan must be identical across seeds.
        drawn = {"sweep": {"oracle_seed"}, "search": {"search_seed"},
                 "serve": {"kind", "request"}}
        for workload, fields in drawn.items():
            a, b = plan(workload, 1), plan(workload, 2)
            self.assertEqual(a["fixed"], b["fixed"], workload)
            self.assertEqual(len(a["ops"]), len(b["ops"]), workload)
            differs = set()
            for x, y in zip(a["ops"], b["ops"]):
                differs |= {k for k in x if x[k] != y[k]}
            self.assertTrue(differs, workload)
            self.assertLessEqual(differs, fields, workload)
        # serve: the seed only orders a fixed multiset of requests.
        a, b = plan("serve", 1), plan("serve", 2)

        def bodies(p):
            return sorted(json.dumps(dict(op["request"], id=None),
                                     sort_keys=True) for op in p["ops"])
        self.assertEqual(bodies(a), bodies(b))

    def test_peak_rss_is_per_workload(self):
        rss = {w: r[2] for w, r in self.reports.items()}
        # Measured last, the sweep still reports its own small peak,
        # not the larger one of the search that ran before it.
        _, _, sweep_rss = program_report("sweep", 1, 0)
        self.assertLess(sweep_rss, rss["search"])


if __name__ == "__main__":
    unittest.main()
