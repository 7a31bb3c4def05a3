"""Self-tests of the benchmark itself, kept out of the package's test suite.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

They use small inputs: a few seconds in all, plus one reference run.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import sigforge  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

# Small pools, so that each test takes well under a second.
SMALL = {"RANDOM_LENGTHS": (10, 12), "RANDOM_SETS_PER_LENGTH": 2, "RANDOM_UNIT_SETS": 3,
         "RANDOM_TRACE_SETS": 3, "COMPARE_LENGTH": 10, "COMPARE_FILES": 2}


class BenchCase(unittest.TestCase):
    def setUp(self):
        self.workdir = ROOT / ".bench_work" / f"selftest-{self.id().rsplit('.', 1)[1]}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.cache = self.workdir / "cache"
        self._saved = {name: getattr(workloads, name) for name in SMALL}
        for name, value in SMALL.items():
            setattr(workloads, name, value)

    def tearDown(self):
        for name, value in self._saved.items():
            setattr(workloads, name, value)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make(self, name, seed=1, sub=""):
        workdir = self.workdir / (sub or name)
        workdir.mkdir(exist_ok=True)
        workload = workloads.WORKLOADS[name](ROOT, workdir, self.cache, seed)
        workload.prepare()
        return workload


def outcomes(samples):
    return [o for sample in samples for o in sample.outcomes]


def run_all(workload):
    return [o for unit in workload.units for o in outcomes(workload.untraced(unit))]


class CorruptedAnswers(BenchCase):
    """A wrong pinned answer must surface as a failed operation."""

    def test_random_extend(self):
        workload = self.make("random-extend")
        self.assertTrue(all(o.ok for o in run_all(workload)))
        workload.expected[workload.files[1]]["metric"] += 4
        self.assertEqual([o.ok for o in run_all(workload)], [True, False, True, True])

    def test_oracle_compare(self):
        workload = self.make("oracle-compare")
        self.assertTrue(all(o.ok and o.proven for o in run_all(workload)))
        victim = workload.files[1]
        workload.expected[victim] = workload.expected[victim].replace(
            ",binary_fallback_welch,", ",welch,")
        self.assertEqual([o.ok for o in run_all(workload)], [True, False])

    def test_corrupted_cache_is_read_back(self):
        workload = self.make("oracle-compare")
        cached = json.loads(workload.cache_path.read_text())
        name = workload.files[0]
        cached["answers"][name] = cached["answers"][name].replace(f"{name},", f"{name},9")
        workload.cache_path.write_text(json.dumps(cached))
        again = self.make("oracle-compare", sub="again")
        self.assertEqual([o.ok for o in run_all(again)], [False, True])

    def test_ref_report(self):
        workload = self.make("ref-report")
        workload.expected["steps"][5]["tsc_after"] += 2
        results = outcomes(workload.in_process(workload.trace_unit))
        self.assertEqual(len(results), 16)
        self.assertEqual([i for i, o in enumerate(results) if not o.ok], [5])
        self.assertTrue(all(o.proven for i, o in enumerate(results) if i != 5))

    def test_failed_exit_fails_every_operation(self):
        workload = self.make("ref-report")
        self.assertFalse(any(o.ok for o in workload.verify([], 2, b"")))


class Wrappers(BenchCase):
    def originals(self):
        return {(m, f): getattr(sys.modules[f"sigforge.{m}"], f) for m, f in TRACED}

    def test_removed_after_traced_run(self):
        workload = self.make("random-extend")
        before = self.originals()
        package_view = {name: getattr(sigforge, name) for name in ("extend_once", "load_set")}
        tracer = Tracer()
        with tracer:
            self.assertIsNot(sigforge.extend_once, package_view["extend_once"])
            self.assertIsNot(sigforge.sphere.sphere_search, before[("sphere", "sphere_search")])
            workload.in_process(workload.trace_unit, tracer)
        self.assertEqual(self.originals(), before)
        self.assertEqual({n: getattr(sigforge, n) for n in package_view}, package_view)
        recorded = len(tracer.spans)
        self.assertGreater(recorded, 0)
        self.assertTrue(all(o.ok for o in outcomes(workload.in_process(workload.trace_unit))))
        self.assertEqual(len(tracer.spans), recorded)

    def test_self_times_cover_the_pass(self):
        workload = self.make("random-extend")
        tracer = Tracer()
        with tracer:
            workload.in_process(workload.trace_unit, tracer)
        roots = [s for s in tracer.spans if s.parent is None]
        total_self = sum(s.self_s for s in tracer.spans) + tracer.counts["sigcore.rescore_s"]
        self.assertAlmostEqual(total_self, sum(s.duration for s in roots), delta=1e-6)
        self.assertEqual(tracer.counts["harness.steps"], len(workload.trace_unit))
        walks = [s for s in tracer.spans if s.name == "sphere.sphere_search"]
        self.assertEqual(len(walks), len(workload.trace_unit))
        self.assertGreater(tracer.counts["sigcore.rescore.calls"], 0)

    def test_counts_repeat_exactly(self):
        workload = self.make("oracle-compare")
        counts = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                workload.in_process(workload.trace_unit, tracer)
            counts.append((dict(tracer.counts, **{"sigcore.rescore_s": 0}),
                           {k: c for k, (c, _) in tracer.totals().items()}))
        self.assertEqual(counts[0], counts[1])


class Seeds(BenchCase):
    def test_new_seed_new_inputs_still_verified(self):
        texts = []
        for seed in (1, 2):
            workload = self.make("random-extend", seed, sub=f"seed{seed}")
            texts.append([(workload.workdir / f).read_text() for f in workload.files])
            self.assertTrue(all(o.ok for o in run_all(workload)))
        self.assertNotEqual(texts[0], texts[1])

    def test_same_seed_same_inputs(self):
        first = self.make("oracle-compare", 3, sub="a")
        second = self.make("oracle-compare", 3, sub="b")
        self.assertEqual([(first.workdir / f).read_bytes() for f in first.files],
                         [(second.workdir / f).read_bytes() for f in second.files])


class Oracle(unittest.TestCase):
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for length in (1, 2, 3, 6, 9, 12):
            for k in (1, length, 3 * length // 2 + 1):
                rows = rng.choice([-1, 1], size=(k, length))
                matrix = sigforge.correlation_matrix(sigforge.SignatureSet.from_rows(rows.tolist()))
                scan = sigforge.ml_exhaustive(matrix)
                metric, chips = oracle.exhaustive_min(matrix.entries)
                self.assertEqual((metric, tuple(chips)), (scan.best_metric, scan.best.chips))


if __name__ == "__main__":
    unittest.main()
