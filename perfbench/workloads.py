"""The benchmark's workloads, their output checks and end-to-end metrics.

Each workload is a closed loop with a single caller.  It repeats a *cycle*
until the run's time is up, and always finishes at least one cycle.  A
cycle synthesises its own held-out clips (untimed), then does, for each
attention variant in turn:

1. ``model.train`` of a freshly built ``DccrnModel`` on the seeded training
   manifest (per-epoch checkpoints, as users run it);
2. ``cli.main(["enhance", ...])`` of the held-out clips assigned to that
   variant, with the ``final.ckpt`` the training just wrote;
3. ``cli.main(["eval", ...])`` of those outputs against their clean clips.

The workloads differ in scale and in how the time splits between these
operations (see ``WORKLOADS``).  Inputs are WAVs and manifests synthesised
from ``--seed``; the program sees nothing else.  Every operation's times
are scaled by the host's speed around it (see ``speed``).

The reference probe is the same for every seed: a fixed 0.5 s clip whose
first-step training loss and enhanced output (from the seeded initial
checkpoints) are recorded in ``reference/`` by ``record_reference.py``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import wave
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dereverb.cli as cli_mod
import dereverb.ctensor as ct
import dereverb.datasynth as datasynth_mod
import dereverb.metrics as metrics_mod
import dereverb.model as model_mod
import dereverb.signal as signal_mod
from dereverb.ctensor import ComplexTensor
from dereverb.datasynth import SynthConfig

import speed
import tracing

VARIANTS = model_mod.ATTENTION_VARIANTS
PROBE_SEED = 20221123
PROBE_SECONDS = 0.5
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LOSS_RTOL = {"float64": 1e-9, "float32": 1e-4}
PROBE_TOLERANCE_LSB = 2  # recorded probe outputs, compared across machines
RELOAD_TOLERANCE_LSB = 1  # final.ckpt reloaded vs the in-memory model


@dataclass(frozen=True)
class Workload:
    """A cycle's shape: the data each variant trains on and the clips enhanced."""

    name: str
    paper: bool  # paper scale: 16 kHz, 256x256 images, B=1, float32
    train_pairs: int  # clean/reverberant pairs in the training manifest
    pair_s: float  # length of each training clip
    epochs: int
    train_calls: int  # train calls per variant per cycle, each on a fresh model
    clip_s: tuple  # held-out clips per cycle; clip j goes to VARIANTS[j % 4]
    setup_reps: int  # set-ups per run; setup_s is their median

    def smoke(self):
        """A few seconds' version of the same cycle, for the smoke tests."""
        return replace(self, train_pairs=1, epochs=1, train_calls=1, clip_s=(0.6,) * 4,
                       setup_reps=1)


WORKLOADS = {
    # Tape-bound training: 3 pairs x 2 s = 12 desk images, B=4, 1 epoch, so
    # 3 steps per variant per cycle; two 2 s clips enhanced per variant.
    # Short cycles give each variant many train calls per run, and each
    # call its own speed scale.
    "train-desk": Workload("train-desk", False, 3, 2.0, 1, 1, (2.0,) * 8, 15),
    # Forward-bound enhancement: four 1 s clips, six 3 s clips and one 60 s
    # clip (the complex variant's) per cycle, 82 s of audio, against 3
    # training steps per variant.  The steps are three one-step train calls
    # (one 2 s pair = 4 images), so that each gets its own speed scale: a
    # run holds only about three cycles.  Equal clip lengths come in groups
    # so that the clip median (a 3 s clip) and tail (the 3 s clip with ten
    # samples above it, from 2 to 10 cycles) do not jump with the cycle count.
    "enhance-desk": Workload(
        "enhance-desk", False, 1, 2.0, 1, 3,
        (1.0, 1.0, 1.0, 60.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0), 15,
    ),
    # Kernel-bound paper scale: 2 steps of one 256x256 image per variant,
    # then one 2 s clip enhanced per variant.
    "paper-b1": Workload("paper-b1", True, 2, 2.0, 1, 1, (2.0,) * 4, 3),
}


def model_config(paper, variant, epochs=1):
    if paper:
        # float32 keeps the peak near 2.5 GB: in float64 the previous step's
        # tape is still referenced while the next forward runs (about 5 GB).
        return model_mod.ModelConfig.paper_scale(
            attention=variant, batch_size=1, epochs=epochs, dtype="float32"
        )
    return model_mod.ModelConfig(attention=variant, epochs=epochs)


def derive_seed(seed, k):
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1)[0])


def wav_frames(path):
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes()


def quantized(samples):
    """Samples as the int16 codes ``write_wav`` stores."""
    return np.clip(np.rint(np.asarray(samples) * 32767.0), -32768, 32767)


def scored_seconds(path):
    """Seconds of a reference clip that ``eval`` scores.

    The metrics score 32 ms Hann frames at an 8 ms hop whose energy is within
    ``ENERGY_GATE_DB`` of the loudest frame, one LPC analysis per frame; the
    share of frames that pass depends on the clip (0.73-0.83 over the seeds
    tried).  Returns the passing frames times the hop.
    """
    wf = signal_mod.read_wav(path)
    frame, hop = round(0.032 * wf.sample_rate), round(0.008 * wf.sample_rate)
    num = (len(wf.samples) - frame) // hop + 1
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    idx = np.arange(frame)[None, :] + hop * np.arange(num)[:, None]
    energy = np.sum((wf.samples[idx] * win) ** 2, axis=1)
    kept = np.count_nonzero(energy >= energy.max() * 10.0 ** (-metrics_mod.ENERGY_GATE_DB / 10.0))
    return kept * hop / wf.sample_rate


def lsb_distance(a, b):
    return float(np.max(np.abs(quantized(a) - quantized(b)))) if len(a) else 0.0


def image_batch(images, dtype):
    """[B, T, F, 1] tensor of spectral images, as ``train`` batches them."""
    data = np.stack([img.data for img in images])
    return ComplexTensor(
        np.ascontiguousarray(data.real, dtype=dtype)[..., None],
        np.ascontiguousarray(data.imag, dtype=dtype)[..., None],
    )


def first_step_loss(cfg, manifest):
    """Loss ``train`` computes on its first step when one batch holds the manifest."""
    model = model_mod.DccrnModel(cfg)
    inputs, raws, targets, _ = model_mod.load_training_images(manifest, cfg)
    dtype = cfg.np_dtype
    mask = model.forward(image_batch(inputs, dtype), training=True)
    s_hat = ct.cmul(mask, image_batch(raws, dtype))
    loss = model_mod.complex_loss(
        image_batch(targets, dtype), s_hat, cfg.compress_exponent, cfg.loss_beta
    )
    return float(loss.real)


def guarded(check, *args):
    """Problems ``check(*args)`` reports; a check that raises is a problem too."""
    try:
        return check(*args)
    except Exception as exc:  # the output could not even be checked
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_cli(argv):
    """(exit code, last stderr line) of ``cli.main``, its output kept off stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_mod.main([str(a) for a in argv])
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


@contextlib.contextmanager
def step_end_hook(ends):
    """Append a timestamp each time ``Adam.step`` returns (the only hook)."""
    orig = inspect.getattr_static(model_mod.Adam, "step")

    @functools.wraps(orig)
    def step(self, grads):
        out = orig(self, grads)
        ends.append(time.perf_counter())
        return out

    model_mod.Adam.step = step
    try:
        yield
    finally:
        model_mod.Adam.step = orig


@dataclass
class Clip:
    name: str
    reverb: Path
    variant: str
    n_samples: int
    seconds: float
    scored_s: float = 0.0  # seconds of the clean clip that eval scores


@dataclass
class Record:
    """Samples and outcomes of one pass over the cycles.

    Each timing sample carries the speed scale of its operation (see
    ``speed``); ``op_s`` is the scaled time of all operations.
    """

    steps: dict = field(default_factory=lambda: defaultdict(list))  # variant -> (ms, scale)
    clips: list = field(default_factory=list)  # (ms, audio s, scale)
    evals: list = field(default_factory=list)  # (s, scored audio s, scale)
    trains: list = field(default_factory=list)  # (images, s, scale)
    op_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)

    def outcome(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


class Runner:
    """One workload's inputs, cycles and checks, in its own work directory."""

    def __init__(self, workload, seed, work):
        self.wl = workload
        self.seed = seed
        self.work = Path(work)
        self.step_ends = []
        self.tracer = None
        self.gauge = None  # speed.Gauge of the timed part of a run

    def cfg(self, variant):
        return model_config(self.wl.paper, variant, self.wl.epochs)

    # -- set-up ---------------------------------------------------------------

    def setup(self, rep):
        """Synthesise the inputs and write the seeded initial checkpoints.

        Returns the set-up's wall seconds.
        """
        t0 = time.perf_counter()
        wl = self.wl
        data = self.work / f"setup{rep}"
        rate = self.cfg("none").sample_rate
        gen = datasynth_mod.generate_dataset
        self.train_manifest = gen(
            wl.train_pairs,
            seed=derive_seed(self.seed, 0),
            out_dir=data / "train",
            cfg=SynthConfig(sample_rate=rate, duration_s=wl.pair_s),
        )
        self._make_clips(data, 0)
        self.probe_manifest = gen(
            1, seed=PROBE_SEED, out_dir=data / "probe",
            cfg=SynthConfig(sample_rate=rate, duration_s=PROBE_SECONDS),
        )
        self.init_ckpt = {}
        for v in VARIANTS:
            self.init_ckpt[v] = data / f"init_{v}.ckpt"
            model_mod.DccrnModel(self.cfg(v)).save(self.init_ckpt[v])
        elapsed = time.perf_counter() - t0
        self._score_clips()
        cfg = self.cfg("none")
        self.train_images = len(model_mod.load_training_images(self.train_manifest, cfg)[0])
        self.train_steps = cfg.epochs * math.ceil(self.train_images / cfg.batch_size)
        if rep > 0:
            shutil.rmtree(self.work / f"setup{rep - 1}")
        return elapsed

    def _make_clips(self, data, k):
        """Synthesise cycle ``k``'s held-out clips and their clean references."""
        rate = self.cfg("none").sample_rate
        self.clips_k = k
        self.refs = data / "refs"  # clean clips, one directory per variant
        self.clips = []
        for j, secs in enumerate(self.wl.clip_s):
            d = data / f"clip{j:02d}"
            datasynth_mod.generate_dataset(
                1, seed=derive_seed(self.seed, 1 + j + 1000 * k), out_dir=d,
                cfg=SynthConfig(sample_rate=rate, duration_s=secs),
            )
            name, variant = f"clip{j:02d}.wav", VARIANTS[j % 4]
            (self.refs / variant).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(d / "clean_0000.wav", self.refs / variant / name)
            n = wav_frames(d / "reverb_0000.wav")
            self.clips.append(Clip(name, d / "reverb_0000.wav", variant, n, n / rate))

    def _score_clips(self):
        for clip in self.clips:
            clip.scored_s = scored_seconds(clip.reverb.with_name("clean_0000.wav"))

    def _fresh_clips(self, k):
        """Give cycle ``k`` clips of its own (untimed).

        The cost of ``eval`` per second depends on the clip's content by a
        few per cent; new content each cycle averages that out within a run.
        """
        if self.clips_k == k:
            return
        previous = self.work / f"clips{self.clips_k}"
        self._make_clips(self.work / f"clips{k}", k)
        self._score_clips()
        shutil.rmtree(previous, ignore_errors=True)

    # -- the measured loop ----------------------------------------------------

    def _op(self, kind, ident, variant=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.begin_op("loop", ident, variant)
        return self.tracer.span(f"op.{kind}")

    def _check_scope(self, ident):
        if self.tracer is not None:
            self.tracer.begin_op("check", ident)

    def cycle(self, k, rec):
        self._fresh_clips(k)
        for v in VARIANTS:
            enh = self.work / f"enh{k}_{v}"
            enh.mkdir(parents=True, exist_ok=True)
            self._train_and_enhance(k, v, enh, rec)
            self._eval(k, v, enh, rec)
            shutil.rmtree(enh)

    def _train_and_enhance(self, k, v, enh, rec):
        for call in range(self.wl.train_calls):
            model, final, out = self._train(k, v, call, rec)
            if call + 1 < self.wl.train_calls:
                shutil.rmtree(out, ignore_errors=True)
        mine = [c for c in self.clips if c.variant == v]
        shortest = min(mine, key=lambda c: c.n_samples, default=None)
        for clip in mine:
            self._enhance(k, clip, final, model, clip is shortest, enh, rec)
        shutil.rmtree(out, ignore_errors=True)

    def _train(self, k, v, call, rec):
        """One ``train`` call; returns (model, final.ckpt or None, run directory)."""
        cfg = self.cfg(v)
        model = model_mod.DccrnModel(cfg)
        out = self.work / f"run{k}_{v}_{call}"
        problems = []
        first = len(self.step_ends)
        final = None
        t0 = time.perf_counter()
        try:
            with self._op("train", f"c{k}.train{call}.{v}", v):
                final, rows = model_mod.train(model, self.train_manifest, out)
        except Exception as exc:  # an operation that raises counts as failed
            problems.append(f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        scale = self.gauge.after_op()
        rec.op_s += (t1 - t0) * scale
        if not problems:
            marks = [t0] + self.step_ends[first:]
            rec.steps[v].extend(((b - a) * 1e3, scale) for a, b in zip(marks, marks[1:]))
            rec.trains.append((cfg.epochs * self.train_images, t1 - t0, scale))
            losses = [row[2] for row in rows]
            if len(losses) != self.train_steps:
                problems.append(f"{len(losses)} steps, want {self.train_steps}")
            if not all(math.isfinite(x) for x in losses):
                problems.append("non-finite training loss")
            if not Path(final).is_file():
                problems.append("no final.ckpt")
        rec.outcome(f"train {v} cycle {k} call {call}", problems)
        return model, None if problems else final, out

    def _enhance(self, k, clip, ckpt, model, compare, enh, rec):
        problems = []
        dst = enh / clip.name
        if ckpt is None:
            rec.outcome(f"enhance {clip.name} cycle {k}", ["training failed"])
            return
        t0 = time.perf_counter()
        with self._op("enhance", f"c{k}.enhance.{clip.name[:-4]}", clip.variant):
            code, err = run_cli(["enhance", "--ckpt", ckpt, "--in", clip.reverb, "--out", dst])
        t1 = time.perf_counter()
        scale = self.gauge.after_op()
        rec.op_s += (t1 - t0) * scale
        rec.clips.append(((t1 - t0) * 1e3, clip.seconds, scale))
        if code != 0:
            problems.append(f"exit code {code}: {err}")
        else:
            self._check_scope(f"check.c{k}.{clip.name[:-4]}")
            problems += guarded(self._check_enhanced, dst, clip, model if compare else None)
        rec.outcome(f"enhance {clip.name} cycle {k}", problems)

    @staticmethod
    def _check_enhanced(dst, clip, model):
        problems = []
        got = signal_mod.read_wav(dst).samples
        if len(got) != clip.n_samples:
            problems.append(f"length {len(got)}, input has {clip.n_samples}")
        if not np.all(np.isfinite(got)):
            problems.append("non-finite samples")
        if model is not None and not problems:
            # final.ckpt as reloaded by the CLI must give the trained model's
            # own output
            want = model_mod.enhance_waveform(model, signal_mod.read_wav(clip.reverb)).samples
            peak = float(np.max(np.abs(want))) if len(want) else 0.0
            if peak > 1.0:
                want = want * (0.99 / peak)
            dist = lsb_distance(got, want)
            if dist > RELOAD_TOLERANCE_LSB:
                problems.append(f"reloaded checkpoint output differs by {dist:g} LSB")
        return problems

    def _eval(self, k, v, enh, rec):
        problems = []
        scores = self.work / f"scores{k}_{v}.csv"
        mine = [c for c in self.clips if c.variant == v]
        t0 = time.perf_counter()
        with self._op("eval", f"c{k}.eval.{v}", v):
            code, err = run_cli(
                ["eval", "--ref-dir", self.refs / v, "--test-dir", enh, "--out", scores]
            )
        t1 = time.perf_counter()
        scale = self.gauge.after_op()
        rec.op_s += (t1 - t0) * scale
        rec.evals.append((t1 - t0, sum(c.scored_s for c in mine), scale))
        if code != 0:
            problems.append(f"exit code {code}: {err}")
        else:
            problems += guarded(self._check_scores, scores, len(mine))
        rec.outcome(f"eval {v} cycle {k}", problems)

    @staticmethod
    def _check_scores(scores, n_clips):
        problems = []
        with open(scores, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r[key]) for r in rows for key in ("cd", "llr", "fwsegsnr")]
        if len(rows) != n_clips + 1:  # one row per clip plus MEAN
            problems.append(f"{len(rows)} score rows for {n_clips} clips")
        if not all(math.isfinite(x) for x in values):
            problems.append("non-finite score")
        return problems

    # -- reference probe --------------------------------------------------------

    def probe_output(self, v):
        """(first-step loss, enhanced probe WAV path or None) for the fixed probe."""
        reverb = Path(self.probe_manifest).parent / "reverb_0000.wav"
        loss = first_step_loss(self.cfg(v), self.probe_manifest)
        wav = self.work / f"probe_{v}.wav"
        code, _ = run_cli(["enhance", "--ckpt", self.init_ckpt[v], "--in", reverb, "--out", wav])
        return loss, wav if code == 0 else None

    def check_probe(self, rec):
        scale = "paper" if self.wl.paper else "desk"
        try:
            with open(REFERENCE_DIR / "reference.json") as fh:
                ref = json.load(fh)[scale]
        except (OSError, KeyError, ValueError) as exc:
            rec.outcome("reference probe", [f"no reference: {exc}"])
            return
        for v in VARIANTS:
            rec.outcome(f"reference probe {v}", guarded(self._check_probe, v, ref[v]))

    def _check_probe(self, v, ref):
        problems = []
        loss, wav = self.probe_output(v)
        rtol = LOSS_RTOL[self.cfg(v).dtype]
        if not (math.isfinite(loss) and abs(loss - ref["loss"]) <= rtol * abs(ref["loss"])):
            problems.append(f"first-step loss {loss!r}, reference {ref['loss']!r}")
        if wav is None:
            problems.append("enhance failed")
        else:
            got = signal_mod.read_wav(wav).samples
            expect = signal_mod.read_wav(REFERENCE_DIR / ref["wav"]).samples
            if len(got) != len(expect):
                problems.append(f"length {len(got)}, reference {len(expect)}")
            else:
                dist = lsb_distance(got, expect)
                if dist > PROBE_TOLERANCE_LSB:
                    problems.append(f"enhanced probe differs by {dist:g} LSB")
        return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples above it.

    With 20 samples or fewer that percentile would not exceed the median,
    so the maximum (percentile 100) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n


END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"step_ms_p50.{v}": "ms" for v in VARIANTS},
    "step_ms_tail": "ms",
    "train_images_per_s": "1/s",
    "rtf": "s/s",
    "clip_ms_p50": "ms",
    "clip_ms_tail": "ms",
    "score_rtf": "s/s",
    "peak_rss_mb": "MB",
}


def end_to_end(rec, setups, rss_mb, scaled=True):
    """(metrics, notes): metric -> value, and the sample counts behind them.

    ``setups`` holds (s, scale) per set-up.  With ``scaled`` every time is
    multiplied by the speed scale of its operation; without, times are raw.
    """

    def t(x, scale):
        return x * scale if scaled else x

    steps = {v: [t(ms, k) for ms, k in rec.steps[v]] for v in VARIANTS}
    all_steps = [x for v in VARIANTS for x in steps[v]]
    clip_ms = [t(ms, k) for ms, _, k in rec.clips]
    m, notes = {}, {}
    m["setup_s"] = statistics.median(t(s, k) for s, k in setups)
    for v in VARIANTS:
        m[f"step_ms_p50.{v}"] = statistics.median(steps[v]) if steps[v] else None
        notes[f"steps.{v}"] = len(steps[v])
    if all_steps:
        m["step_ms_tail"], notes["step_tail_percentile"] = tail(all_steps)
    notes["steps"] = len(all_steps)
    images = sum(i for i, _, _ in rec.trains)
    wall = sum(t(s, k) for _, s, k in rec.trains)
    m["train_images_per_s"] = images / wall if wall else None
    audio = sum(a for _, a, _ in rec.clips)
    m["rtf"] = sum(clip_ms) / 1e3 / audio if audio else None
    if clip_ms:
        m["clip_ms_p50"] = statistics.median(clip_ms)
        m["clip_ms_tail"], notes["clip_tail_percentile"] = tail(clip_ms)
    notes["clips"] = len(clip_ms)
    # a median of per-call ratios: the few long calls of a run would
    # otherwise carry a sum, and with them the machine's load at those times
    score_rtfs = [t(s, k) / a for s, a, k in rec.evals if a]
    m["score_rtf"] = statistics.median(score_rtfs) if score_rtfs else None
    notes["evals"] = len(score_rtfs)
    m["peak_rss_mb"] = rss_mb
    return {k: m.get(k) for k in END_TO_END_UNITS}, notes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, root, smoke=False):
    """Run one workload; returns the result dict ``run.py`` prints."""
    wl = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    work = Path(root) / ".bench_work" / f"{name}-s{seed}-{os.getpid()}"
    runner = Runner(wl, seed, work)
    rec, trec = Record(), Record()
    tracer = tracing.Tracer() if trace else None
    try:
        with step_end_hook(runner.step_ends):
            runner.gauge = speed.Gauge()
            setups = []
            for rep in range(wl.setup_reps):
                if tracer is not None:
                    tracer.begin_op("setup", f"setup{rep}")
                with tracing.installed(tracer) if tracer else contextlib.nullcontext():
                    elapsed = runner.setup(rep)
                setups.append((elapsed, runner.gauge.after_op()))
            # a traced run alternates untraced and traced cycles, so that the
            # machine's drift falls on both sides of the overhead alike
            # the loop stops at the cycle end nearest to ``seconds``; a traced
            # run gives half of them to each kind of cycle, and at least two
            # cycles to each, so that the overhead compares more than one pair
            budget, least = (seconds / 2, 2) if tracer is not None else (seconds, 1)
            cycles, untraced_s, last_s = 0, 0.0, 0.0
            while untraced_s + 0.5 * last_s < budget or cycles < least:
                start = time.perf_counter()
                runner.cycle(cycles, rec)
                last_s = time.perf_counter() - start
                untraced_s += last_s
                if tracer is not None:
                    runner.tracer = tracer
                    with tracing.installed(tracer):
                        runner.cycle(cycles, trec)
                    runner.tracer = None
                cycles += 1
            runner.check_probe(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, notes = end_to_end(rec, setups, peak_rss_mb())
    notes["speed_kernel_ms"] = statistics.median(runner.gauge.samples)
    result = {
        "rec": rec,
        "trec": trec,
        "cycles": cycles,
        "setups": setups,
        "end_to_end": metrics,
        "raw_end_to_end": end_to_end(rec, setups, metrics["peak_rss_mb"], scaled=False)[0],
        "notes": notes,
        "tracer": tracer,
    }
    if tracer is not None:
        overhead = trec.op_s / rec.op_s - 1.0 if rec.op_s else 0.0
        result["per_layer"] = tracing.per_layer_metrics(tracer, cycles, wl.setup_reps, overhead)
        result["traced_end_to_end"], _ = end_to_end(trec, setups, None)
    return result
