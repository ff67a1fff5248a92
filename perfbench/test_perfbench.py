"""Tests of the benchmark itself: seeded generators, metric bookkeeping, and
a smoke run of every workload in both modes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs build the program first (Release, into .bench_build/).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads as wl  # noqa: E402


def generated(workload, seed):
    if workload == "study_batch":
        return wl.study_batch(seed)[0]
    if workload == "serve_hot":
        pool, schedules = wl.serve_hot(seed, keys=300, draws=500)
    else:
        pool, schedules = wl.serve_tiered(seed, lines=400)
    return wl.materialize(pool, schedules)


class Generators(unittest.TestCase):
    def test_same_seed_gives_identical_lines(self):
        for workload in ("study_batch", "serve_hot", "serve_tiered"):
            self.assertEqual(generated(workload, 5), generated(workload, 5))

    def test_different_seed_gives_different_lines(self):
        for workload in ("study_batch", "serve_hot", "serve_tiered"):
            self.assertNotEqual(generated(workload, 5), generated(workload, 6))

    def test_held_out_seed_is_not_a_test_seed(self):
        self.assertNotIn(wl.HELD_OUT_SEED, (5, 6))

    def test_study_starts_with_the_fixture(self):
        lines, fixture = wl.study_batch(3)
        self.assertEqual(lines[:fixture],
                         wl.FIXTURE_REQUESTS.read_text().splitlines())
        kinds = [json.loads(line)["kind"] for line in lines[fixture:]]
        self.assertEqual(kinds.count("tuple_menu"), 9)

    def test_hot_keys_are_distinct_and_ids_unique(self):
        pool, schedules = wl.serve_hot(2, keys=500, draws=200)
        self.assertEqual(len(set(pool)), len(pool))
        sent = [line for conn in wl.materialize(pool, schedules)
                for line in conn]
        ids = [json.loads(line)["id"] for line in sent]
        self.assertEqual(len(set(ids)), len(ids))

    def test_tiered_repeats_follow_their_original_on_one_connection(self):
        pool, schedules = wl.serve_tiered(4, lines=800)
        for schedule in schedules:
            seen = set()
            for j, index in enumerate(schedule):
                if 13 <= j % 20 < 16:
                    self.assertIn(pool[index], seen)
                seen.add(pool[index])

    def test_response_template_splits_at_the_echoed_id(self):
        head, tail = wl.response_template(
            '{"schema_version":4,"id":"R7","kind":"eval","ok":true}', "R7")
        self.assertEqual(head + "c0n1" + tail,
                         '{"schema_version":4,"id":"c0n1","kind":"eval",'
                         '"ok":true}')


class Metrics(unittest.TestCase):
    def test_benchmark_json_names_every_metric_with_its_unit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         layers.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         layers.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["study_batch", "serve_hot", "serve_tiered"])

    def test_self_time_subtracts_children(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv") as f:
            f.write("1\t0\trequest\tmemo\t0\t100\n"
                    "2\t1\tbatch_io.parse_request\t-\t10\t30\n"
                    "3\t1\tservice.serve\teval\t40\t90\n")
            f.flush()
            spans = layers.read_spans(f.name)
        self.assertEqual(spans[1]["self_ns"], 30)
        self.assertEqual(spans[3]["self_ns"], 50)


class Smoke(unittest.TestCase):
    """Every workload at a tiny size: the output names every metric of
    BENCHMARK.json with its unit and no request failed."""

    def run_smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace),
             "--smoke"], capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_study_batch(self):
        self.run_smoke("study_batch", 0)
        self.run_smoke("study_batch", 1)

    def test_serve_hot(self):
        self.run_smoke("serve_hot", 0)
        self.run_smoke("serve_hot", 1)

    def test_serve_tiered(self):
        self.run_smoke("serve_tiered", 0)
        self.run_smoke("serve_tiered", 1)


if __name__ == "__main__":
    unittest.main()
