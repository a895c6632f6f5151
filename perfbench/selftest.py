"""Checks of the benchmark itself: gates, count reconciliation, host-speed
sampling, refusal.

Run from the repository root (takes a few minutes, it runs traced
workloads):

    python3 -m unittest perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import check_curve, check_modes  # noqa: E402

TETS_STRETCH = 384


def bench(workload, seed=0, trace=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def metrics(workload, seed=0):
    proc = bench(workload, seed)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, out
    return {k: v["value"] for k, v in out["metrics"].items()}


class Gates(unittest.TestCase):
    D = [0.98, 1.1, 1.5, 2.0]

    def test_curve_gate_accepts_a_good_curve(self):
        self.assertEqual(check_curve(self.D, [-1.0, 2.0, 5.0, 9.0], 4), [])

    def test_curve_gate_rejects_defects(self):
        self.assertTrue(check_curve(self.D[:3], [-1.0, 2.0, 5.0], 4))  # skipped row
        self.assertTrue(check_curve(self.D, [1.0, 2.0, 5.0, 9.0], 4))  # sign below 1
        self.assertTrue(check_curve(self.D, [-1.0, 2.0, 2.0, 9.0], 4))  # not increasing
        self.assertTrue(check_curve(self.D, [-1.0, 2.0, float("nan"), 9.0], 4))
        ref = {"force": [-1.0, 2.0, 5.0, 9.0]}
        self.assertEqual(check_curve(self.D, [-1.0, 2.0, 5.0, 9.0], 4, ref), [])
        self.assertTrue(check_curve(self.D, [-1.0, 2.0, 5.0, 9.0001], 4, ref))

    def test_modes_gate(self):
        f = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        good = {"stiffness_rel_frobenius_diff": 1e-16, "frequencies_a_hz": f, "frequencies_b_hz": f}
        self.assertEqual(check_modes(good), [])
        for bad in (
            dict(good, stiffness_rel_frobenius_diff=1e-9),
            dict(good, frequencies_b_hz=[1.0, 1.0, 2.0, 3.0, 4.0, 5.001]),
            dict(good, frequencies_a_hz=f[::-1], frequencies_b_hz=f[::-1]),
            dict(good, frequencies_a_hz=f[:5], frequencies_b_hz=f[:5]),
        ):
            self.assertTrue(check_modes(bad))


class Counts(unittest.TestCase):
    def test_stretch_counts_reconcile_and_repeat(self):
        first, second = metrics("stretch"), metrics("stretch")
        counts = [k for k in first if not k.endswith(("_s", "_frac"))]
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})
        m = first
        self.assertEqual(
            m["stretch_core.decompose.calls"],
            TETS_STRETCH * (m["fem.assembly.assemble.calls"] + m["fem.assembly.total_energy.calls"]),
        )
        self.assertEqual(
            m["fem.solver.halvings"],
            m["fem.assembly.total_energy.calls"]
            - m["fem.solver.solve_quasistatic.calls"]
            - m["fem.solver.newton_iters"],
        )
        self.assertEqual(m["fem.assembly.assemble.unprojected_calls"], 12)
        self.assertEqual(m["trace.unmeasured_layers"], 0)
        self.assertAlmostEqual(m["trace.accounted_frac"], 1.0, delta=0.05)

    def test_modes_assembles_four_times(self):
        m = metrics("modes")
        self.assertEqual(m["fem.assembly.assemble.calls"], 4)
        self.assertEqual(m["fem.modal.modal_frequencies.calls"], 2)
        self.assertEqual(m["fem.solver.solve_quasistatic.calls"], 0)

    def test_catalog_runs_no_fem(self):
        m = metrics("catalog")
        self.assertGreater(m["lame.extract_lame.calls"], 0)
        self.assertGreater(m["cli.verify_table.calls"], 0)
        self.assertEqual(m["fem.assembly.assemble.calls"], 0)
        self.assertEqual(m["stretch_core.decompose.calls"], 0)


class HostSpeed(unittest.TestCase):
    def test_sampling_is_taken_out_of_the_timed_call(self):
        import worker
        from hostspeed import SAMPLE_EVERY_S, Sampler

        class BusyCli:
            @staticmethod
            def main(argv):
                end = time.perf_counter() + 3.5 * SAMPLE_EVERY_S
                while time.perf_counter() < end:
                    pass
                return 0

        with Sampler() as host:
            t0 = time.perf_counter()
            rc, raised, _, _, elapsed = worker.call_cli(BusyCli, [], host)
            wall = time.perf_counter() - t0
        self.assertEqual((rc, raised), (0, None))
        self.assertGreaterEqual(len(host.samples), 3)
        self.assertGreater(host.spent, 0.0)
        self.assertAlmostEqual(elapsed, wall - host.spent, delta=0.01)


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        (HERE / ".work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / ".work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
                ".work", "results", "__pycache__"))
            proc = bench("catalog", trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
