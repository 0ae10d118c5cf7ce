"""Self-test of the benchmark: repeatable counts and workload separation.

    python3 bench/selftest.py

Traces a small slice of every workload twice at the seed of the committed
digests.  Every
count, cell total, bit size and ratio must repeat exactly, the outputs must
match the committed digests, and the workloads must keep the separation the
prediction table in README.md relies on.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SLICE = {"graded": 6, "compressed_cli": 4, "hilbert": 7}
SEED = 0  # the seed the committed digests are for


def traced_slice(name: str) -> dict:
    session = worker.Session(WORKLOADS[name], SEED)
    result = worker.trace(session, SLICE[name], None)
    if session.failures:
        raise AssertionError("\n".join(session.failures))
    return {k: v for k, (v, _unit) in result["metrics"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = {name: traced_slice(name) for name in SLICE}
        cls.second = {name: traced_slice(name) for name in SLICE}

    def test_counts_repeat_exactly(self):
        for name in SLICE:
            counts = {k: v for k, v in self.first[name].items() if spans.is_deterministic(k)}
            again = {k: v for k, v in self.second[name].items() if spans.is_deterministic(k)}
            self.assertEqual(counts, again, name)
            self.assertIn("linalg.rref.max_bits", counts)

    def test_hilbert_makes_no_rref_automorphism_or_grading_calls(self):
        m = self.first["hilbert"]
        for layer in ("linalg.rref", "linalg.solve", "linalg.kernel_basis",
                      "automorphism.matrix", "automorphism.dual_apply", "poly.jet_mul",
                      "grading.reduce_generators", "grading.killing_step",
                      "grading.killing_matrix", "inverse_system.socle_type"):
            self.assertEqual(m[f"{layer}.calls"], 0, layer)
        self.assertGreater(m["linalg.rank.calls"], 0)

    def test_compressed_cli_makes_no_automorphism_calls(self):
        m = self.first["compressed_cli"]
        for layer in ("automorphism.matrix", "automorphism.dual_apply", "poly.jet_mul"):
            self.assertEqual(m[f"{layer}.calls"], 0, layer)
        self.assertGreater(m["linalg.rref.calls"], 0)

    def test_graded_builds_automorphism_matrices(self):
        m = self.first["graded"]
        self.assertGreater(m["automorphism.matrix.calls"], 0)
        self.assertGreater(m["grading.killing_step.calls"], 0)


if __name__ == "__main__":
    unittest.main()
