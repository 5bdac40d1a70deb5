"""CLI contracts: subcommands, exit codes, run records, determinism."""

import csv
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dereverb
from dereverb.checkpoint import load_checkpoint, save_checkpoint
from dereverb.cli import main
from dereverb.errors import DataError
from dereverb.model import DccrnModel, ModelConfig
from dereverb.signal import WaveForm, write_wav

TINY_MODEL_OVERRIDES = [
    "num_enc_layers=2",
    "channels=4,4",
    "gru_hidden=4",
    "image_frames=8",
    "sample_rate=500",
    "frame_len=16",
    "hop=4",
    "fft_size=16",
    "epochs=1",
    "batch_size=8",
    "seed=3",
]

TINY_SYNTH_OVERRIDES = [
    "sample_rate=500",
    "duration_s=0.6",
    "t60_min=0.1",
    "t60_max=0.2",
]


def tiny_model_config():
    return ModelConfig(
        num_enc_layers=2,
        channels=(4, 4),
        gru_hidden=4,
        image_frames=8,
        sample_rate=500,
        frame_len=16,
        hop=4,
        fft_size=16,
        seed=3,
    )


def run_in_subprocess(*args):
    """``python -m dereverb.cli *args`` in a fresh interpreter, output captured."""
    src = Path(dereverb.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "dereverb.cli", *map(str, args)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)


def synth_args(out, n=2, seed=5):
    args = ["synth", "--n", str(n), "--seed", str(seed), "--out", str(out)]
    for ov in TINY_SYNTH_OVERRIDES:
        args += ["--set", ov]
    return args


class TestSynth:
    def test_contract(self, tmp_path, capsys):
        rc = main(synth_args(tmp_path / "d", n=4, seed=7))
        assert rc == 0
        wavs = list((tmp_path / "d").glob("*.wav"))
        assert len(wavs) == 8
        assert (tmp_path / "d" / "manifest.csv").exists()
        assert (tmp_path / "d" / "run.json").exists()
        assert "manifest" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        for name in ["manifest.csv", "run.json", "clean_0000.wav", "reverb_0001.wav"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a.replace(b"/a", b"/x") == b.replace(b"/b", b"/x"), name

    def test_run_record_contents(self, tmp_path):
        main(synth_args(tmp_path / "d"))
        record = json.loads((tmp_path / "d" / "run.json").read_text())
        assert record["command"] == "synth"
        assert record["resolved_settings"]["sample_rate"] == 500
        assert record["outputs"]["manifest"] == "manifest.csv"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "d", seed=-1)) == 2
        err = capsys.readouterr().err
        assert "seed" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_pair_exits_2_without_manifest(self, tmp_path, capsys, n):
        assert main(synth_args(tmp_path / "d", n=n)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: number of pairs must be >= 1, got {n}\n"
        assert not (tmp_path / "d" / "manifest.csv").exists()

    @pytest.mark.parametrize("rate", [1, 2])
    def test_rate_below_one_sample_per_segment_exits_2(self, tmp_path, rate):
        done = run_in_subprocess("synth", "--n", "1", "--out", tmp_path / "d",
                                 "--set", f"sample_rate={rate}")
        assert done.returncode == 2
        assert "segment" in done.stderr and len(done.stderr.strip().splitlines()) == 1


class TestTrain:
    def test_smoke(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "data", n=2)) == 0
        args = [
            "train",
            "--data", str(tmp_path / "data" / "manifest.csv"),
            "--out", str(tmp_path / "run"),
        ]
        for ov in TINY_MODEL_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 0
        assert (tmp_path / "run" / "final.ckpt").exists()
        assert (tmp_path / "run" / "loss.csv").exists()
        assert (tmp_path / "run" / "run.json").exists()
        header = (tmp_path / "run" / "loss.csv").read_text().splitlines()[0]
        assert header == "step,epoch,loss"

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        rc = main(
            ["train", "--data", "x.csv", "--out", str(tmp_path), "--set", "bogus=1"]
        )
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_zero_epochs_trains_no_steps(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "data", n=2)) == 0
        args = ["train", "--data", str(tmp_path / "data" / "manifest.csv"),
                "--out", str(tmp_path / "run")]
        for ov in TINY_MODEL_OVERRIDES + ["epochs=0"]:
            args += ["--set", ov]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "trained 0 steps;" in out and "final loss" not in out
        assert (tmp_path / "run" / "loss.csv").read_text() == "step,epoch,loss\n"
        assert json.loads((tmp_path / "run" / "run.json").read_text())["outputs"]["steps"] == 0

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_bytes(b"epochs = 1\n# \xff\n")
        args = ["train", "--data", "x.csv", "--out", str(tmp_path / "r"), "--config", str(config)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "cfg.txt" in err and len(err.strip().splitlines()) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        args = ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r")]
        for ov in TINY_MODEL_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "setting",
        ["kernel=3", "stride=1,2,3", "stride=0,2", "padding=-1,1", "gru_layers=0", "seed=-1",
         "learning_rate=-1", "checkpoint_every=-1"],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, setting):
        assert main(synth_args(tmp_path / "data", n=1)) == 0
        args = ["train", "--data", str(tmp_path / "data" / "manifest.csv"),
                "--out", str(tmp_path / "run")]
        for ov in TINY_MODEL_OVERRIDES + [setting]:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run" / "final.ckpt").exists()

    def test_every_pair_skipped_is_data_error(self, tmp_path, capsys):
        # the WAVs are at 500 Hz; a model at 3 Hz can use none of them
        assert main(synth_args(tmp_path / "data", n=1)) == 0
        args = ["train", "--data", str(tmp_path / "data" / "manifest.csv"),
                "--out", str(tmp_path / "run")]
        for ov in TINY_MODEL_OVERRIDES + ["sample_rate=3"]:
            args += ["--set", ov]
        capsys.readouterr()
        assert main(args) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == ["warning", "error"]
        assert "no usable pairs" in lines[1] and "sample rate 500 Hz" in lines[1]
        assert lines[0].count("clean_0000.wav") == 1
        assert not (tmp_path / "run").exists()

    def test_run_record_and_checkpoint_hold_the_config(self, tmp_path):
        assert main(synth_args(tmp_path / "data", n=1)) == 0
        args = ["train", "--data", str(tmp_path / "data" / "manifest.csv"),
                "--out", str(tmp_path / "run")]
        for ov in TINY_MODEL_OVERRIDES + ["epochs=0"]:
            args += ["--set", ov]
        assert main(args) == 0
        settings = json.loads((tmp_path / "run" / "run.json").read_text())["resolved_settings"]
        assert settings["channels"] == [4, 4] and settings["learning_rate"] == 1e-3
        _, meta = load_checkpoint(tmp_path / "run" / "final.ckpt")
        assert meta["model_config"] == settings
        cfg = DccrnModel.from_checkpoint(tmp_path / "run" / "final.ckpt").cfg
        assert cfg == dataclasses.replace(tiny_model_config(), epochs=0, batch_size=8)


class TestEnhance:
    def _checkpoint(self, tmp_path):
        model = DccrnModel(tiny_model_config())
        path = tmp_path / "model.ckpt"
        model.save(path)
        return path

    def test_roundtrip(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        rng = np.random.default_rng(1)
        write_wav(tmp_path / "in.wav", WaveForm(0.2 * rng.standard_normal(300), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 0
        assert (tmp_path / "out.wav").exists()
        assert (tmp_path / "out.wav.run.json").exists()

    def test_out_is_a_directory_exits_2_with_one_line(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        (tmp_path / "out").mkdir()
        done = run_in_subprocess("enhance", "--ckpt", ckpt, "--in", tmp_path / "in.wav",
                                 "--out", tmp_path / "out")
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and str(tmp_path / "out") in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1

    def test_sample_rate_mismatch_names_both_rates(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(1000), 8000))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "8000" in err and "500" in err

    def test_entry_too_large_to_count_exits_2(self, tmp_path, capsys):
        # 65536**4 elements: a product in int64 wraps to 0
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, {"w": (np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))})
        dims = struct.pack("<4I", 1, 1, 1, 1), struct.pack("<4I", *[65536] * 4)
        ckpt.write_bytes(ckpt.read_bytes().replace(*dims, 1))
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "huge.ckpt" in err and "truncated" in err and len(err.strip().splitlines()) == 1

    def test_wrong_buffer_shape_is_data_error(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        arrays, meta = load_checkpoint(ckpt)
        real, imag = arrays["buffer.enc0.bn.run_vrr"]
        arrays["buffer.enc0.bn.run_vrr"] = (real[:-1], imag[:-1])
        save_checkpoint(ckpt, arrays, meta)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        assert "enc0.bn.run_vrr" in capsys.readouterr().err

    def test_nonzero_buffer_imaginary_part_is_data_error(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        arrays, meta = load_checkpoint(ckpt)
        real, imag = arrays["buffer.enc0.bn.run_vrr"]
        imag = imag.copy()
        imag[0] = 7.0
        arrays["buffer.enc0.bn.run_vrr"] = (real, imag)
        save_checkpoint(ckpt, arrays, meta)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "'buffer.enc0.bn.run_vrr'" in err and "imaginary" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out.wav").exists()

    def test_entry_beyond_float32_range_is_data_error(self, tmp_path):
        # 1e39 is finite in the checkpoint's float64 but casts to inf in float32
        ckpt = tmp_path / "model.ckpt"
        DccrnModel(dataclasses.replace(tiny_model_config(), dtype="float32")).save(ckpt)
        arrays, meta = load_checkpoint(ckpt)
        real, imag = arrays["head.w"]
        real = real.copy()
        real.flat[0] = 1e39
        arrays["head.w"] = (real, imag)
        save_checkpoint(ckpt, arrays, meta)
        message = f"{ckpt}: checkpoint entry 'head.w' holds non-finite values"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            DccrnModel.from_checkpoint(ckpt)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        done = run_in_subprocess("enhance", "--ckpt", ckpt, "--in", tmp_path / "in.wav",
                                 "--out", tmp_path / "out.wav")
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out.wav").exists()


    @pytest.mark.parametrize(
        "field,value",
        [("epochs", "x"), ("channels", 5), ("kernel", [3, "3"]), ("bounded_mask", 1),
         ("psd_smoothing_alpha", "0.5"), ("kernel", [3]), ("stride", [0, 2]),
         ("padding", [1, 1, 1]), ("seed", -1), ("gru_layers", 0), ("hop", 200),
         ("frame_len", 32), ("fft_size", 8), ("image_frames", 0), ("sample_rate", 0)],
    )
    def test_mistyped_model_config_exits_2(self, tmp_path, capsys, field, value):
        ckpt = self._checkpoint(tmp_path)
        arrays, meta = load_checkpoint(ckpt)
        meta["model_config"][field] = value
        save_checkpoint(ckpt, arrays, meta)
        with pytest.raises(DataError, match=f"^{re.escape(str(ckpt))}: bad model config: "):
            DccrnModel.from_checkpoint(ckpt)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(300), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: bad model config: ")
        assert "model.ckpt" in err and field in err and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "entry,part,bad", [("head.w", 0, np.nan), ("buffer.enc0.bn.run_vrr", 0, np.inf)]
    )
    def test_non_finite_checkpoint_exits_2_without_wav(self, tmp_path, capsys, entry, part, bad):
        ckpt = self._checkpoint(tmp_path)
        arrays, meta = load_checkpoint(ckpt)
        arrays[entry][part].flat[0] = bad
        save_checkpoint(ckpt, arrays, meta)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(400), 500))
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        assert not (tmp_path / "out.wav").exists()
        err = capsys.readouterr().err
        assert "model.ckpt" in err and entry in err and len(err.strip().splitlines()) == 1

    def test_non_finite_output_exits_2_without_wav(self, tmp_path, capsys, monkeypatch):
        ckpt = self._checkpoint(tmp_path)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(400), 500))
        nan_output = lambda model, wf: WaveForm(np.full(len(wf), np.nan), wf.sample_rate)
        monkeypatch.setattr("dereverb.cli.enhance_waveform", nan_output)
        rc = main(
            ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert rc == 2
        assert not (tmp_path / "out.wav").exists()
        assert "model.ckpt" in capsys.readouterr().err

    def test_rtf_on_stderr_not_in_run_record(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        write_wav(tmp_path / "in.wav", WaveForm(np.zeros(1000), 500))
        argv = ["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "in.wav"),
                "--out", str(tmp_path / "out.wav")]
        records = []
        for _ in range(2):
            assert main(argv) == 0
            records.append((tmp_path / "out.wav.run.json").read_bytes())
            (line,) = capsys.readouterr().err.strip().splitlines()
            assert "s wall for 2.000 s of audio (RTF" in line
        assert records[0] == records[1]
        assert b"wall" not in records[0] and b"RTF" not in records[0]


class TestEval:
    def test_identical_dirs(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        for d in ("ref", "test"):
            (tmp_path / d).mkdir()
        for i in range(2):
            t = np.arange(2000) / 4000
            sig = 0.3 * np.sin(2 * np.pi * (200 + 50 * i) * t)
            sig += 0.01 * rng.standard_normal(2000)
            wf = WaveForm(sig, 4000)
            write_wav(tmp_path / "ref" / f"u{i}.wav", wf)
            write_wav(tmp_path / "test" / f"u{i}.wav", wf)
        rc = main(
            ["eval", "--ref-dir", str(tmp_path / "ref"), "--test-dir", str(tmp_path / "test"),
             "--out", str(tmp_path / "scores.csv")]
        )
        assert rc == 0
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert lines[0] == "utt_id,cd,llr,fwsegsnr"
        assert lines[-1].startswith("MEAN,")
        mean = lines[-1].split(",")
        assert float(mean[1]) == 0.0 and float(mean[3]) == 35.0

    def test_comma_in_name_is_quoted(self, tmp_path):
        wf = WaveForm(0.3 * np.sin(np.arange(2000) / 3.0), 4000)
        for d in ("ref", "test"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / "a,b.wav", wf)
        rc = main(
            ["eval", "--ref-dir", str(tmp_path / "ref"), "--test-dir", str(tmp_path / "test"),
             "--out", str(tmp_path / "scores.csv")]
        )
        assert rc == 0
        with open(tmp_path / "scores.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [4, 4, 4]
        assert rows[1][0] == "a,b"


class TestGradcheckCommand:
    def test_passes_with_table(self, capsys):
        rc = main(["gradcheck", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "complex_conv2d" in out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"


def test_every_export_resolves():
    namespace = {}
    exec("from dereverb import *", namespace)
    assert set(dereverb.__all__) <= set(namespace)


def test_successive_calls_keep_overrides_apart(tmp_path, capsys):
    # the parser is built once per process; one call's --set must not reach the next
    assert main([*synth_args(tmp_path / "a"), "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err
    assert main(synth_args(tmp_path / "b")) == 0
    record = json.loads((tmp_path / "b" / "run.json").read_text())
    assert record["argv"] == synth_args(tmp_path / "b")
    assert record["resolved_settings"]["sample_rate"] == 500


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--n", "2"]) == 1
