"""Fuzzed inputs through the CLI: a truncated or byte-flipped checkpoint, WAV
or manifest must end in exit 0 or 2, never in a traceback.  Training WAVs are
fuzzed too: a truncated one leaves its pair's two files of different lengths.
Mutations are seeded; half truncate the file at a random length, half flip
one to three bytes, mostly inside the file's structured head.  A sweep sets
every config field to odd values, through ``--set`` and through checkpoint
metadata, and another makes every path argument missing, a directory, or a
file where a directory must be made."""

import contextlib
import copy
import dataclasses
import io
import shutil

import numpy as np
import pytest

from dereverb.checkpoint import load_checkpoint, save_checkpoint
from dereverb.cli import main
from dereverb.datasynth import SynthConfig
from dereverb.model import DccrnModel, ModelConfig
from dereverb.signal import WaveForm, write_wav

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


def run_cli(argv, codes=(0, 2, 3), naming=""):
    """How the outcome of ``main(argv)`` breaks the contract, as a string, or None
    if it keeps it.  The contract: an exit code in ``codes``, and for a nonzero one
    a single error line, after any warnings, that contains ``naming``.  Any
    exception that escapes ``main`` breaks it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        return f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    errors = [ln for ln in lines if not ln.startswith("warning: ")]
    one_line = len(errors) == 1 and errors[0].startswith(("error: ", "numerical failure: "))
    kept = rc in codes and (rc == 0 or (one_line and naming in errors[0]))
    return None if kept else f"exit {rc}: {lines}"


def run_fuzz(path, cases, argv):
    """Write each of ``cases`` to ``path`` and run ``argv``; returns the cases
    that broke the contract (exit 0, or exit 2 with one error line)."""
    broken = []
    for k, damaged in enumerate(cases):
        path.write_bytes(damaged)
        outcome = run_cli(argv, codes=(0, 2))
        if outcome is not None:
            broken.append(f"case {k}: {outcome}")
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


@pytest.mark.parametrize("rate,code", [(1, 2), (50, 2), (300, 2), (390, 2), (391, 0)])
def test_low_rate_eval(tmp_path, rate, code):
    """Below 391 Hz a 32 ms frame holds fewer than the 13 samples LPC order 12
    needs: eval exits 2 with one line naming the pair, not a traceback."""
    ref, test = tmp_path / "ref", tmp_path / "test"
    ref.mkdir()
    test.mkdir()
    x = np.random.default_rng(rate).uniform(-0.5, 0.5, 2 * rate)
    write_wav(ref / "u.wav", WaveForm(x, rate))
    write_wav(test / "u.wav", WaveForm(0.9 * x + 0.01, rate))
    argv = ["eval", "--ref-dir", str(ref), "--test-dir", str(test),
            "--out", str(tmp_path / "scores.csv")]
    assert run_cli(argv, codes=(code,), naming=str(ref / "u.wav")) is None


def test_damaged_wav_train(good, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(good / "data", data)
    argv = ["train", "--data", str(data / "manifest.csv"), "--out", str(tmp_path / "run")]
    for ov in MODEL_OVERRIDES:
        argv += ["--set", ov]
    broken = []
    for seed, name in ((5, "clean_0000.wav"), (6, "reverb_0000.wav")):
        wav = data / name
        original = wav.read_bytes()
        broken += [f"{name} {case}" for case in run_fuzz(wav, mutations(original, seed, 44), argv)]
        wav.write_bytes(original)
    assert broken == []


def test_damaged_manifest(good, tmp_path):
    manifest = good / "data" / "fuzzed.csv"
    argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
    for ov in MODEL_OVERRIDES:
        argv += ["--set", ov]
    data = (good / "data" / "manifest.csv").read_bytes()
    assert run_fuzz(manifest, mutations(data, 4, len(data)), argv) == []


# each odd config value as config text and as the JSON value it spells
ODD_VALUES = [("-1", -1), ("0", 0), ("3", 3), ("1,2,3", [1, 2, 3]), ("nan", float("nan")),
              ("inf", float("inf")), ("x", "x"), ("", ""), ("none", None), ("true", True)]


def odd_values(field, seed):
    """``ODD_VALUES`` plus two seeded draws, an int in [3, 10) and an int pair; all
    small enough that no run builds a large model.  (Synth rates 1 and 2 once hung,
    so ``test_cli`` runs them in a subprocess with a timeout.)"""
    rng = np.random.default_rng([seed, sum(map(ord, field))])
    k, pair = int(rng.integers(3, 10)), [int(v) for v in rng.integers(-1, 5, size=2)]
    return [*ODD_VALUES, (str(k), k), (",".join(map(str, pair)), pair)]


def test_config_sweep_through_set(good, tmp_path):
    manifest = good / "data" / "one.csv"
    manifest.write_text("".join((good / "data" / "manifest.csv").read_text().splitlines(True)[:2]))
    broken = []
    for f in dataclasses.fields(ModelConfig):
        for text, _ in odd_values(f.name, 11):
            argv = ["train", "--data", str(manifest), "--out", str(tmp_path / "run")]
            for ov in [*MODEL_OVERRIDES, "epochs=0", f"{f.name}={text}"]:
                argv += ["--set", ov]
            outcome = run_cli(argv)
            if outcome is not None:
                broken.append(f"train --set {f.name}={text}: {outcome}")
    for f in dataclasses.fields(SynthConfig):
        for text, _ in odd_values(f.name, 12):
            argv = ["synth", "--n", "1", "--seed", "5", "--out", str(tmp_path / "synth")]
            for ov in [*SYNTH_OVERRIDES, f"{f.name}={text}"]:
                argv += ["--set", ov]
            outcome = run_cli(argv)
            if outcome is not None:
                broken.append(f"synth --set {f.name}={text}: {outcome}")
    assert broken == []


def test_config_sweep_through_checkpoint(good, tmp_path):
    arrays, meta = load_checkpoint(good / "model.ckpt")
    ckpt = tmp_path / "odd.ckpt"
    argv = ["enhance", "--ckpt", str(ckpt), "--in", str(good / "data" / "reverb_0000.wav"),
            "--out", str(tmp_path / "out.wav")]
    broken = []
    for f in dataclasses.fields(ModelConfig):
        for _, value in odd_values(f.name, 13):
            odd = copy.deepcopy(meta)
            odd["model_config"][f.name] = value
            save_checkpoint(ckpt, arrays, odd)
            outcome = run_cli(argv)
            if outcome is not None:
                broken.append(f"{f.name}={value!r}: {outcome}")
    assert broken == []


def test_bad_path_arguments(good, tmp_path):
    """Every path argument, missing, a directory, or a file where a directory
    must be made, exits 2 with one error line that names the path."""
    data, ckpt = good / "data", good / "model.ckpt"
    manifest, wav = data / "manifest.csv", data / "reverb_0000.wav"
    missing, adir, afile = tmp_path / "missing", tmp_path / "adir", tmp_path / "afile"
    adir.mkdir()
    afile.write_text("x")
    refs, tests = tmp_path / "refs", tmp_path / "tests"
    (refs / "u.wav").mkdir(parents=True)
    tests.mkdir()
    shutil.copy(wav, tests / "u.wav")
    model = [arg for ov in MODEL_OVERRIDES for arg in ("--set", ov)]
    out = tmp_path / "out"

    def enhance(ckpt=ckpt, infile=wav, out=out / "o.wav"):
        return ["enhance", "--ckpt", ckpt, "--in", infile, "--out", out]

    def train(data=manifest, out=out / "run", config=None):
        return ["train", "--data", data, "--out", out,
                *(["--config", config] if config else []), *model]

    def evaluate(refs=data, tests=data, out=out / "s.csv"):
        return ["eval", "--ref-dir", refs, "--test-dir", tests, "--out", out]

    cases = [
        (enhance(ckpt=missing), missing),
        (enhance(ckpt=adir), adir),
        (enhance(infile=missing), missing),
        (enhance(infile=adir), adir),
        (enhance(out=adir), adir),
        (enhance(out=afile / "o.wav"), afile),
        (train(data=missing), missing),
        (train(data=adir), adir),
        (train(config=missing), missing),
        (train(config=adir), adir),
        (train(out=afile), afile),
        (evaluate(refs=missing), missing),
        (evaluate(refs=refs, tests=tests), refs / "u.wav"),
        (evaluate(tests=missing), missing),
        (evaluate(out=adir), adir),
        (evaluate(out=afile / "s.csv"), afile),
        (["synth", "--n", "1", "--out", afile / "d"], afile),
        (["synth", "--n", "1", "--out", out / "d", "--config", adir], adir),
    ]
    broken = []
    for argv, path in cases:
        argv = [str(a) for a in argv]
        outcome = run_cli(argv, codes=(2,), naming=str(path))
        if outcome is not None:
            broken.append(f"{' '.join(argv[:1] + argv[1:7])}: {outcome}")
    assert broken == []
