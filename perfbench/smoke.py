"""Smoke tests of the benchmark, at smoke size (about two minutes).

Run from the root of a checkout:

    python3 perfbench/smoke.py

They check that every workload runs clean and prints the metrics listed in
``BENCHMARK.json``, that the output checks fire on corrupted outputs, that
traced spans nest (self times never negative, children inside their
parent), and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dereverb.cli as cli_mod  # noqa: E402
import dereverb.metrics as metrics_mod  # noqa: E402
import dereverb.model as model_mod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


def smoke_run(name="train-desk", trace=False):
    return workloads.run(name, seed=3, seconds=0, trace=trace, root=ROOT, smoke=True)


class BenchmarkSpec(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, workloads.END_TO_END_UNITS
        )
        listed = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(listed, [w for w in workloads.WORKLOADS if w != "paper-b1"])
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])

    def test_spec_limits(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        self.assertEqual(len({m["name"] for m in metrics}), len(metrics))
        for m in metrics:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)


class Workloads(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = smoke_run(name)
                self.assertEqual(result["rec"].failures, [])
                for metric, value in result["end_to_end"].items():
                    self.assertIsNotNone(value, metric)
                    self.assertGreater(value, 0, metric)

    def test_first_step_loss_is_what_train_computes(self):
        runner = workloads.Runner(workloads.WORKLOADS["train-desk"].smoke(), 0,
                                  ROOT / ".bench_work" / f"smoke-loss-{os.getpid()}")
        try:
            runner.setup(0)
            cfg = model_mod.ModelConfig(attention="complex", epochs=1)
            _, rows = model_mod.train(model_mod.DccrnModel(cfg), runner.probe_manifest,
                                      runner.work / "train")
            self.assertEqual(rows[0][2], workloads.first_step_loss(cfg, runner.probe_manifest))
        finally:
            shutil.rmtree(runner.work, ignore_errors=True)

    def test_times_are_scaled_by_their_operation_speed(self):
        rec = workloads.Record()
        for v in workloads.VARIANTS:
            rec.steps[v] = [(100.0, 2.0), (300.0, 0.5)]
        rec.clips = [(50.0, 1.0, 2.0)]
        rec.evals = [(0.2, 4.0, 0.5)]
        rec.trains = [(12, 3.0, 2.0)]
        scaled, _ = workloads.end_to_end(rec, [(0.1, 3.0)], 1.0)
        raw, _ = workloads.end_to_end(rec, [(0.1, 3.0)], 1.0, scaled=False)
        self.assertEqual(scaled["step_ms_p50.none"], 175.0)
        self.assertEqual(raw["step_ms_p50.none"], 200.0)
        self.assertEqual((scaled["clip_ms_p50"], raw["clip_ms_p50"]), (100.0, 50.0))
        self.assertEqual((scaled["score_rtf"], raw["score_rtf"]), (0.025, 0.05))
        self.assertEqual((scaled["train_images_per_s"], raw["train_images_per_s"]), (2.0, 4.0))
        self.assertAlmostEqual(scaled["setup_s"], 0.3)

    def test_tail_takes_the_percentile_with_ten_samples_beyond(self):
        self.assertEqual(workloads.tail(range(30)), (19, 100.0 * 20 / 30))
        self.assertEqual(workloads.tail(range(20)), (19, 100.0))


class ChecksFire(unittest.TestCase):
    """Each corruption of the program's output must be counted as a failure."""

    def failures_with(self, owner, attr, replacement):
        with mock.patch.object(owner, attr, replacement):
            result = smoke_run()
        self.assertGreater(len(result["rec"].failures), 0)
        return "\n".join(result["rec"].failures)

    def test_enhanced_wav_off_by_a_few_lsb(self):
        write = cli_mod.write_wav

        def shifted(path, wf):
            wf.samples = wf.samples + 4.0 / 32767.0
            return write(path, wf)

        text = self.failures_with(cli_mod, "write_wav", shifted)
        self.assertIn("reloaded checkpoint output differs", text)
        self.assertIn("enhanced probe differs", text)

    def test_enhanced_wav_too_short(self):
        write = cli_mod.write_wav

        def truncated(path, wf):
            wf.samples = wf.samples[:-1]
            return write(path, wf)

        self.assertIn("length", self.failures_with(cli_mod, "write_wav", truncated))

    def test_enhanced_output_not_a_wav(self):
        def junk(path, wf):
            with open(path, "wb") as fh:
                fh.write(b"not a wav")

        self.assertIn("check raised DataError", self.failures_with(cli_mod, "write_wav", junk))

    def test_non_finite_training_loss(self):
        loss = model_mod.complex_loss

        def nan_loss(*args):
            return model_mod.ct.scale(loss(*args), math.nan)

        self.assertIn("TrainingError", self.failures_with(model_mod, "complex_loss", nan_loss))

    def test_first_step_loss_off_reference(self):
        loss = model_mod.complex_loss

        def drifted(*args):
            return model_mod.ct.scale(loss(*args), 1.0 + 1e-6)

        text = self.failures_with(model_mod, "complex_loss", drifted)
        self.assertIn("first-step loss", text)

    def test_non_finite_score(self):
        text = self.failures_with(metrics_mod, "llr", lambda ref, test: math.nan)
        self.assertIn("non-finite score", text)


class Tracing(unittest.TestCase):
    def test_traced_run(self):
        for name in ("train-desk", "enhance-desk"):
            with self.subTest(workload=name):
                result = smoke_run(name, trace=True)
                self.assertEqual(result["trec"].failures, [])
                per_layer = result["per_layer"]
                self.assertEqual(
                    {k: u for k, (_, u) in per_layer.items()},
                    {m["name"]: m["unit"] for m in SPEC["per_layer"]},
                )
                self.assertGreater(per_layer["ctensor.tape_nodes_per_step.complex"][0], 0)
                self.assertGreater(per_layer["layers.complex_conv2d.step_flops.none"][0], 0)
                self.assertGreater(per_layer["trace.step_covered_frac"][0], 0.5)
                self.check_spans(result["tracer"].spans)

    def check_spans(self, spans):
        timing = tracing.self_times(spans)
        for i, (name, start, end, parent, ident) in enumerate(spans):
            self.assertFalse(math.isnan(end), name)
            dur, covered, own = timing[i]
            self.assertGreaterEqual(own, 0.0, name)
            self.assertLessEqual(covered, dur, name)
            if parent >= 0:
                self.assertGreaterEqual(start, spans[parent][1], name)
                self.assertLessEqual(end, spans[parent][2], name)
        steps = [s for s in spans if s[0] == "model.step"]
        self.assertTrue(steps)
        self.assertTrue(all(re.search(r"\.s\d+$", s[4]) for s in steps))


class Packaging(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
