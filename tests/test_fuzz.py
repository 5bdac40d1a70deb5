"""Fuzzed inputs through the CLI: a truncated or byte-flipped checkpoint, WAV
or manifest must end in exit 0 or 2, never in a traceback.  Mutations are
seeded; half truncate the file at a random length, half flip one to three
bytes, mostly inside the file's structured head."""

import shutil

import numpy as np
import pytest

from dereverb.cli import main
from dereverb.errors import DereverbError
from dereverb.model import DccrnModel, ModelConfig

MODEL_OVERRIDES = [
    "num_enc_layers=2", "channels=4,4", "gru_hidden=4", "image_frames=8",
    "sample_rate=500", "frame_len=16", "hop=4", "fft_size=16", "epochs=1",
    "batch_size=8", "seed=3",
]
SYNTH_OVERRIDES = ["sample_rate=500", "duration_s=0.6", "t60_min=0.1", "t60_max=0.2"]
N_CASES = 24


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A tiny synthesized dataset and an untrained checkpoint matching it."""
    root = tmp_path_factory.mktemp("fuzz")
    argv = ["synth", "--n", "2", "--seed", "5", "--out", str(root / "data")]
    for ov in SYNTH_OVERRIDES:
        argv += ["--set", ov]
    assert main(argv) == 0
    kwargs = {}
    for ov in MODEL_OVERRIDES:
        key, value = ov.split("=")
        kwargs[key] = tuple(map(int, value.split(","))) if "," in value else int(value)
    DccrnModel(ModelConfig(**kwargs)).save(root / "model.ckpt")
    return root


def mutations(data, seed, head):
    """``N_CASES`` damaged copies of ``data``; flips favour its first ``head`` bytes."""
    rng = np.random.default_rng(seed)
    for k in range(N_CASES):
        b = bytearray(data)
        if k % 2 == 0:
            del b[int(rng.integers(0, len(b))) :]
        else:
            for _ in range(int(rng.integers(1, 4))):
                hi = min(head, len(b)) if rng.random() < 0.75 else len(b)
                b[int(rng.integers(0, hi))] ^= int(rng.integers(1, 256))
        yield bytes(b)


def run_fuzz(path, cases, argv):
    """Write each of ``cases`` to ``path`` and run ``argv``; returns the cases
    that broke the contract (exit 0 or 2, only DereverbError escapes)."""
    broken = []
    for k, damaged in enumerate(cases):
        path.write_bytes(damaged)
        try:
            rc = main(argv)
        except DereverbError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other escape is the finding
            broken.append(f"case {k}: {type(exc).__name__}: {exc}")
            continue
        if rc not in (0, 2):
            broken.append(f"case {k}: exit {rc}")
    return broken


def test_damaged_checkpoint(good, tmp_path):
    ckpt = tmp_path / "bad.ckpt"
    data = (good / "model.ckpt").read_bytes()
    meta_end = 12 + int.from_bytes(data[8:12], "little")
    # valid JSON metadata that is not a model config object
    swapped = [
        data[:8] + len(blob).to_bytes(4, "little") + blob + data[meta_end:]
        for blob in (b"5", b"[]", b"null", b'"x"', b'{"model_config": 5}')
    ]
    # head: magic, metadata JSON and the first entry headers
    cases = [*mutations(data, 1, meta_end + 64), *swapped]
    argv = ["enhance", "--ckpt", str(ckpt), "--in", str(good / "data" / "reverb_0000.wav"),
            "--out", str(tmp_path / "out.wav")]
    assert run_fuzz(ckpt, cases, argv) == []


def test_damaged_wav_enhance(good, tmp_path):
    wav = tmp_path / "bad.wav"
    argv = ["enhance", "--ckpt", str(good / "model.ckpt"), "--in", str(wav),
            "--out", str(tmp_path / "out.wav")]
    data = (good / "data" / "reverb_0000.wav").read_bytes()
    assert run_fuzz(wav, mutations(data, 2, 44), argv) == []


def test_damaged_wav_eval(good, tmp_path):
    ref, test = tmp_path / "ref", tmp_path / "test"
    ref.mkdir()
    test.mkdir()
    shutil.copy(good / "data" / "clean_0000.wav", ref / "a.wav")
    argv = ["eval", "--ref-dir", str(ref), "--test-dir", str(test),
            "--out", str(tmp_path / "scores.csv")]
    data = (good / "data" / "reverb_0000.wav").read_bytes()
    assert run_fuzz(test / "a.wav", mutations(data, 3, 44), argv) == []


def test_damaged_manifest(good, tmp_path):
    manifest = good / "data" / "fuzzed.csv"
    argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
    for ov in MODEL_OVERRIDES:
        argv += ["--set", ov]
    data = (good / "data" / "manifest.csv").read_bytes()
    assert run_fuzz(manifest, mutations(data, 4, len(data)), argv) == []
