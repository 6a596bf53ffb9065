"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  The
traced-run tests run every workload twice and take a few minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Counts the tracer takes at layer boundaries; they must not depend on
#: timing, so two traced runs of one seed give the same values.
COUNTS = ("search.examined", "limits.is_two_kernel.calls", "core.iso2.calls",
          "ideal.dual_ideal.calls", "formats.bytes_out",
          "factor.arrow_subcat.cells")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.splitlines()[-1])


class TracedRuns(unittest.TestCase):

    def test_counts_repeat_and_verdicts_match(self):
        # A traced run's second pass is traced and its first is not; the
        # run is correct only if every traced job gave the untraced pass's
        # exit code and byte-identical output.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced(workload, 3), traced(workload, 3)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first["failed"], 0)
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)


class Tracing(unittest.TestCase):

    def test_uninstall_restores_every_binding(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        pkg = run.import_package()
        before = {layer: dict(vars(module)) for layer, module in pkg.items()}
        iso2 = pkg["core"].TwoCategory.iso2
        tracer = Tracer(pkg)
        tracer.install()
        self.assertIsNot(pkg["cli"].parse, before["cli"]["parse"])
        tracer.uninstall()
        for layer, module in pkg.items():
            for name, value in before[layer].items():
                self.assertIs(getattr(module, name), value, name)
        self.assertIs(pkg["core"].TwoCategory.iso2, iso2)


class OutsideACheckout(unittest.TestCase):

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            os.mkdir(os.path.join(tmp, "perfbench"))
            for name in os.listdir(HERE):
                if name.endswith(".py"):
                    shutil.copy(os.path.join(HERE, name),
                                os.path.join(tmp, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "ideal-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
