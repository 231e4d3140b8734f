"""Tests for the benchmark driver's parsing and bookkeeping.

Run from the repository root:

    python3 -m unittest discover -s hostbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

# Lines exactly as crisp-telemetry's `Snapshot::to_json` writes them.
HEARTBEAT = (
    '{"type":"heartbeat","elapsed_s":0.000,"done":0,"total":120,"queue_depth":120,'
    '"findings":0,"retries":0,"quarantined":0,"rate_per_s":0.000,"p50_ms":0.000,'
    '"p99_ms":0.000,"eta_s":null,"utilization":[0.000,0.000]}'
)
FINAL = (
    '{"type":"final","elapsed_s":0.305,"done":120,"total":120,"queue_depth":0,'
    '"findings":0,"retries":0,"quarantined":0,"rate_per_s":393.410,"p50_ms":4.194,'
    '"p99_ms":33.554,"eta_s":null,"utilization":[0.938,0.935]}'
)

# A crisp-fault `--report` file, trimmed to two field rows.
REPORT = {
    "programs": 2, "faults_per_program": 4, "cases": 8, "verified": 8, "skipped": 0,
    "retries": 0, "quarantined": 0,
    "fields": [
        {"field": "next-pc", "masked": 3, "sdc": 0, "control-divergence": 2, "hang": 0, "total": 5, "avf": 0.4},
        {"field": "btb-tag", "masked": 3, "sdc": 0, "control-divergence": 0, "hang": 0, "total": 3, "avf": 0.0},
        {"field": "opcode", "masked": 0, "sdc": 0, "control-divergence": 0, "hang": 0, "total": 0, "avf": 0.0},
    ],
    "quarantined_cases": [],
}


class HeartbeatParsing(unittest.TestCase):
    def test_first_and_final_snapshots_parse(self):
        first = run.parse_heartbeat(HEARTBEAT)
        self.assertEqual((first["type"], first["done"], first["total"]), ("heartbeat", 0, 120))
        self.assertIsNone(first["eta_s"])
        final = run.parse_heartbeat(FINAL)
        self.assertEqual((final["type"], final["done"], final["quarantined"]), ("final", 120, 0))

    def test_rejects_non_snapshots(self):
        for line in ('{"type":"ready","setup_s":0.1}', '[1, 2]', '{"type":"heartbeat","done":1}'):
            with self.assertRaises(ValueError):
                run.parse_heartbeat(line)
        with self.assertRaises(ValueError):
            run.parse_heartbeat('{"type":"heartbeat","done":inf}')


class ReportParsing(unittest.TestCase):
    def test_fault_report_flattens_to_checkpoint_tallies(self):
        flat = run.fault_report_tallies(REPORT)
        self.assertEqual(flat, {
            "verified": 8, "next-pc.masked": 3, "next-pc.control-divergence": 2, "btb-tag.masked": 3,
        })
        # The traced replay prints the checkpoint as flat JSON.
        checkpoint = json.loads(
            '{"completed":8,"verified":8,"next-pc.masked":3,"btb-tag.masked":3,'
            '"next-pc.control-divergence":2}'
        )
        self.assertEqual(run.replay_tallies(checkpoint), flat)
        checkpoint["btb-tag.masked"] = 2
        self.assertNotEqual(run.replay_tallies(checkpoint), flat)

    def test_diff_commit_total(self):
        out = "crisp-diff: 330 programs x 32 configurations on 2 threads\ncrisp-diff: all agree (4604144 commits compared)\n"
        self.assertEqual(run.diff_commits(out), 4604144)
        with self.assertRaises(ValueError):
            run.diff_commits("crisp-diff: DIVERGENCE — minimal reproducer follows\n")

    def test_last_json_line_wins(self):
        self.assertEqual(run.last_json('banner\n{"a": 1}\n\n'), {"a": 1})


class CampaignSeeds(unittest.TestCase):
    def test_the_seed_alone_picks_the_programs(self):
        n = len(run.FAULT_SEED_KS)
        fault = [run.FaultCampaign(s).seed for s in range(n)]
        self.assertEqual(len(set(fault)), n)
        self.assertEqual(run.FaultCampaign(n + 2).seed, fault[2])
        self.assertEqual(run.DiffCampaign(7).seed, run.DiffCampaign(7).seed)
        for s in (-1, 0, 2**40):
            self.assertGreater(run.DiffCampaign(s).seed, 0)
            self.assertLess(run.DiffCampaign(s).seed, 2**64)


class Bookkeeping(unittest.TestCase):
    def test_reconciliation_tolerance(self):
        run.check_reconciled({"trace.reconcile_err": 2e-5})
        for bad in (0.2, None):
            with self.assertRaises(run.CheckFailed):
                run.check_reconciled({"trace.reconcile_err": bad})

    def test_summary_takes_the_fast_side_of_host_speed_metrics(self):
        r = run.Run(0)
        # Three tenths of the spawns uncontended, the rest 1.6x slower.
        for wall in [1.0, 1.01, 1.02, 1.6, 1.61, 1.62, 1.63, 1.64, 1.65, 1.66]:
            r.add({"wall_s": wall, "cases_per_s": 100 / wall, "sim_cpi": 1.5, "peak_rss_mb": wall})
        got = r.summarise()
        self.assertLess(got["wall_s"], 1.05)
        self.assertGreater(got["cases_per_s"], 100 / 1.05)
        self.assertEqual(got["sim_cpi"], 1.5)
        self.assertEqual(got["peak_rss_mb"], statistics.median(r.samples["wall_s"]))

    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
