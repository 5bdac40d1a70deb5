"""DCCRN assembly, compressed complex loss, Adam, training and enhancement.

The network is a U-Net over complex spectral images: each encoder/decoder
block applies CReLU -> complex conv -> attention block -> dense block ->
complex batchnorm; two GRU layers sit at the bottleneck; skip connections
concatenate encoder outputs onto mirrored decoder inputs channel-wise; a
final 1x1 complex conv emits an unbounded complex ratio mask of the input
image shape.  Decoder convs are transposed so arbitrary per-layer strides
invert exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ctensor as ct
from . import layers
from .attention import MECHANISMS, TFAttentionBlock
from .checkpoint import load_checkpoint, save_checkpoint
from .config import build_config
from .ctensor import ComplexTensor
from .datasynth import read_manifest
from .errors import ConfigError, ContractError, DataError, ShapeError, TrainingError
from .layers import ComplexBatchNorm, ComplexGruCell, _conv_out_dim, complex_conv2d, unitary_init
from .signal import (
    WaveForm,
    apply_mask,
    check_framing,
    istft,
    make_spectral_images,
    psd_smooth,
    read_wav,
    reassemble_spectral_images,
    stft,
)

ATTENTION_VARIANTS = ("none", *MECHANISMS)


@dataclass
class ModelConfig:
    """Architecture, framing, and training hyperparameters.

    ``channels`` counts stacked real+imag channels per encoder layer (so the
    complex channel count is half); widths must be even.  Defaults are the
    CPU-tractable desk scale; :meth:`paper_scale` gives the 6-layer,
    256x256-image variant.
    """

    num_enc_layers: int = 4
    channels: tuple = (4, 8, 16, 32)
    kernel: tuple = (3, 3)
    stride: tuple = (1, 2)
    padding: tuple = (1, 1)
    gru_layers: int = 2
    gru_hidden: int = 32
    attention: str = "complex"
    compress_exponent: float = 0.3
    loss_beta: float = 0.3
    learning_rate: float = 1e-3
    batch_size: int = 4
    epochs: int = 20
    seed: int = 0
    image_frames: int = 64
    sample_rate: int = 4000
    frame_len: int = 128
    hop: int = 32
    fft_size: int = 128
    dtype: str = "float64"
    bounded_mask: bool = False
    psd_smoothing_alpha: float | None = None
    checkpoint_every: int = 1

    @classmethod
    def paper_scale(cls, **overrides):
        """6-layer encoder on 256x256 images at 16 kHz."""
        base = dict(
            num_enc_layers=6,
            channels=(8, 16, 32, 64, 128, 256),
            gru_hidden=128,
            image_frames=256,
            sample_rate=16000,
            frame_len=512,
            hop=128,
            fft_size=512,
        )
        base.update(overrides)
        return cls(**base)

    @property
    def image_bins(self):
        return self.fft_size // 2

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def validate(self):
        if self.num_enc_layers < 1:
            raise ConfigError("num_enc_layers must be >= 1")
        for name, low in (("kernel", 1), ("stride", 1), ("padding", 0)):
            pair = getattr(self, name)
            if len(pair) != 2 or min(pair) < low:
                raise ConfigError(f"{name} must be a (time, frequency) pair of ints >= {low}, "
                                  f"got {pair}")
        if len(self.channels) != self.num_enc_layers:
            raise ConfigError(
                f"channels {self.channels} must list one width per encoder layer "
                f"({self.num_enc_layers})"
            )
        if any(c % 2 or c < 2 for c in self.channels):
            raise ConfigError(f"channel widths must be even and positive: {self.channels}")
        if self.gru_layers < 1:
            raise ConfigError(f"gru_layers must be >= 1, got {self.gru_layers}")
        if self.gru_hidden % 2 or self.gru_hidden < 2:
            raise ConfigError(f"gru_hidden must be even and positive: {self.gru_hidden}")
        if self.attention not in ATTENTION_VARIANTS:
            raise ConfigError(
                f"attention must be one of {ATTENTION_VARIANTS}, got {self.attention!r}"
            )
        if not 0.0 <= self.loss_beta <= 1.0:
            raise ConfigError(f"loss_beta must lie in [0, 1], got {self.loss_beta}")
        if not 0 < self.compress_exponent < math.inf:
            raise ConfigError(
                f"compress_exponent must be finite and > 0, got {self.compress_exponent}"
            )
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0 or self.checkpoint_every < 0:
            raise ConfigError(
                f"seed and checkpoint_every must be >= 0, got {self.seed}, {self.checkpoint_every}"
            )
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.psd_smoothing_alpha is not None and not (0 <= self.psd_smoothing_alpha < 1):
            raise ConfigError("psd_smoothing_alpha must lie in [0, 1)")
        check_framing(self.frame_len, self.hop, self.fft_size, ConfigError)
        if self.image_frames < 1 or self.sample_rate < 1:
            raise ConfigError(
                f"image_frames and sample_rate must be >= 1, got {self.image_frames}, "
                f"{self.sample_rate}"
            )
        return self


class _UNetBlock:
    """Shared encoder/decoder block: CReLU -> conv -> attention -> dense -> BN."""

    def __init__(self, in_cc, out_cc, spatial_out, cfg, rng, *, transpose):
        dtype = cfg.np_dtype
        self.stride, self.padding = cfg.stride, cfg.padding
        # a transposed conv's kernel is [C_in, C_out, kt, kf] and its output
        # size is fixed here; a conv's is [C_out, C_in, kt, kf]
        self.output_spatial = spatial_out if transpose else None
        kt, kf = cfg.kernel
        shape = (in_cc, out_cc, kt, kf) if transpose else (out_cc, in_cc, kt, kf)
        self.conv_w = unitary_init(shape, rng, dtype=dtype)
        self.attn = None
        if cfg.attention != "none":
            self.attn = TFAttentionBlock(
                cfg.attention, out_cc, spatial_out[0], spatial_out[1], rng=rng, dtype=dtype
            )
        self.dense1_w = unitary_init((out_cc, out_cc, 3, 3), rng, dtype=dtype)
        self.dense2_w = unitary_init((out_cc, 2 * out_cc, 3, 3), rng, dtype=dtype)
        self.bn = ComplexBatchNorm(out_cc, dtype=dtype)

    def __call__(self, x, training):
        h = ct.crelu(x)
        if self.output_spatial is None:
            h = complex_conv2d(h, self.conv_w, self.stride, self.padding)
        else:
            h = layers.complex_conv_transpose2d(
                h, self.conv_w, self.stride, self.padding, self.output_spatial
            )
        if self.attn is not None:
            h = self.attn(h)
        d = ct.crelu(complex_conv2d(h, self.dense1_w, 1, 1))
        h = complex_conv2d(ct.concat([h, d], axis=-1), self.dense2_w, 1, 1)
        return self.bn(h, training)

    def parameters(self):
        out = [("conv.w", self.conv_w)]
        if self.attn is not None:
            out += [(f"attn.{n}", p) for n, p in self.attn.parameters()]
        out += [("dense1.w", self.dense1_w), ("dense2.w", self.dense2_w)]
        out += [(f"bn.{n}", p) for n, p in self.bn.parameters()]
        return out

    def buffers(self):
        return [(f"bn.{n}", b) for n, b in self.bn.buffers()]


class DccrnModel:
    """Complex U-Net with a recurrent bottleneck emitting a complex mask."""

    def __init__(self, cfg: ModelConfig):
        self._build(cfg, np.random.default_rng(cfg.seed))

    def _build(self, cfg, rng):
        """Lay out the network.  ``rng`` draws the seeded initial weights; with
        None every weight is a zero placeholder that :meth:`load_arrays` fills."""
        cfg.validate()
        self.cfg = cfg
        dtype = cfg.np_dtype
        n = cfg.num_enc_layers
        enc_cc = [c // 2 for c in cfg.channels]
        in_cc = [1] + enc_cc[:-1]

        # spatial dims per level: dims[0] is the image, dims[i+1] after layer i
        dims = [(cfg.image_frames, cfg.image_bins)]
        kt, kf = cfg.kernel
        st, sf = cfg.stride
        pt, pf = cfg.padding
        for _ in range(n):
            t, f = dims[-1]
            t2, f2 = _conv_out_dim(t, kt, st, pt), _conv_out_dim(f, kf, sf, pf)
            if t2 < 1 or f2 < 1:
                raise ConfigError(
                    f"feature map collapsed to {t2}x{f2}; too many strided layers "
                    f"for {cfg.image_frames}x{cfg.image_bins} images"
                )
            dims.append((t2, f2))
        self.dims = dims

        self.encoder = [
            _UNetBlock(in_cc[i], enc_cc[i], dims[i + 1], cfg, rng, transpose=False)
            for i in range(n)
        ]

        t_b, f_b = dims[n]
        self.bottleneck_cc = enc_cc[-1]
        d_in = f_b * enc_cc[-1]
        h_cc = cfg.gru_hidden // 2
        self.gru_cells = []
        for l in range(cfg.gru_layers):
            self.gru_cells.append(
                ComplexGruCell(d_in if l == 0 else h_cc, h_cc, rng=rng, dtype=dtype)
            )
        self.gru_proj = unitary_init((h_cc, d_in), rng, dtype=dtype)
        self.gru_proj_bias = ComplexTensor(np.zeros(d_in, dtype=dtype))

        dec_out_cc = in_cc[::-1]  # mirror the encoder input widths
        dec_out_cc[-1] = enc_cc[0]
        self.decoder = []
        prev_cc = enc_cc[-1]
        for j in range(n):
            mirror = n - 1 - j
            block = _UNetBlock(
                prev_cc + enc_cc[mirror], dec_out_cc[j], dims[mirror], cfg, rng, transpose=True
            )
            self.decoder.append(block)
            prev_cc = dec_out_cc[j]

        self.head = unitary_init((1, prev_cc, 1, 1), rng, dtype=dtype)

    # -- parameter/buffer plumbing ------------------------------------------

    def parameters(self):
        out = []
        for i, blk in enumerate(self.encoder):
            out += [(f"enc{i}.{n}", p) for n, p in blk.parameters()]
        for l, cell in enumerate(self.gru_cells):
            out += [(f"gru{l}.{n}", p) for n, p in cell.parameters()]
        out += [("gru_proj.w", self.gru_proj), ("gru_proj.b", self.gru_proj_bias)]
        for j, blk in enumerate(self.decoder):
            out += [(f"dec{j}.{n}", p) for n, p in blk.parameters()]
        out += [("head.w", self.head)]
        return out

    def buffers(self):
        out = []
        for i, blk in enumerate(self.encoder):
            out += [(f"enc{i}.{n}", b) for n, b in blk.buffers()]
        for j, blk in enumerate(self.decoder):
            out += [(f"dec{j}.{n}", b) for n, b in blk.buffers()]
        return out

    def save(self, path):
        arrays = {name: (p.real, p.imag) for name, p in self.parameters()}
        for name, b in self.buffers():
            arrays[f"buffer.{name}"] = (b, np.zeros_like(b))
        save_checkpoint(path, arrays, meta={"model_config": dataclasses.asdict(self.cfg)})

    def load_arrays(self, arrays):
        dtype = self.cfg.np_dtype
        known = {name for name, _ in self.parameters()}
        known.update(f"buffer.{name}" for name, _ in self.buffers())
        unknown = [key for key in arrays if key not in known]
        if unknown:
            raise DataError(f"checkpoint holds entry {unknown[0]!r}, unknown to the model")

        def entry(key, shape):
            if key not in arrays:
                raise DataError(f"checkpoint is missing entry {key!r}")
            r, i = arrays[key]
            if r.shape != shape:
                raise DataError(f"checkpoint entry {key!r} has shape {r.shape}, want {shape}")
            # a value beyond the model dtype's range casts to inf, caught below
            with np.errstate(over="ignore"):
                r, i = r.astype(dtype), i.astype(dtype)
            if not (np.isfinite(r).all() and np.isfinite(i).all()):
                raise DataError(f"checkpoint entry {key!r} holds non-finite values")
            return r, i

        for name, p in self.parameters():
            p.real, p.imag = entry(name, p.shape)
        for name, b in self.buffers():
            key = f"buffer.{name}"
            r, _ = entry(key, b.shape)
            if arrays[key][1].any():
                raise DataError(f"checkpoint entry {key!r} has a nonzero imaginary part")
            b[...] = r

    @classmethod
    def from_checkpoint(cls, path):
        """The model a checkpoint saved, built without drawing initial weights:
        :meth:`load_arrays` checks and sets every parameter and buffer."""
        arrays, meta = load_checkpoint(path)
        if not isinstance(meta, dict) or "model_config" not in meta:
            raise DataError(f"{path}: checkpoint carries no model config")
        try:
            cfg = build_config(ModelConfig, meta["model_config"])
        except ConfigError as exc:
            raise DataError(f"{path}: bad model config: {exc}") from exc
        model = cls.__new__(cls)
        model._build(cfg, None)
        try:
            model.load_arrays(arrays)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
        return model

    # -- forward --------------------------------------------------------------

    def forward(self, x, training=False):
        """Spectral image batch [B,T,F,1] -> complex mask, same shape."""
        if x.ndim != 4 or x.shape[1:] != (self.cfg.image_frames, self.cfg.image_bins, 1):
            raise ShapeError(
                f"expected images [B,{self.cfg.image_frames},{self.cfg.image_bins},1], "
                f"got {x.shape}"
            )

        skips = []
        h = x
        for blk in self.encoder:
            h = blk(h, training)
            skips.append(h)

        b = h.shape[0]
        t_b, f_b = self.dims[-1]
        seq = ct.reshape(h, (b, t_b, f_b * self.bottleneck_cc))
        for cell in self.gru_cells:
            seq = cell.run(seq)
        flat = ct.reshape(seq, (b * t_b, seq.shape[-1]))
        proj = ct.add(ct.matmul(flat, self.gru_proj), self.gru_proj_bias)
        h = ct.reshape(proj, (b, t_b, f_b, self.bottleneck_cc))

        for j, blk in enumerate(self.decoder):
            h = blk(ct.concat([h, skips[-1 - j]], axis=-1), training)

        mask = complex_conv2d(h, self.head, 1, 0)
        if self.cfg.bounded_mask:
            # bounded magnitude: tanh(|M|) * exp(j arg M)
            bounded = ct.tanh_split(ct.magnitude(mask))
            mask = ct.cmul(bounded, ct.compress_mag(mask, 0.0))
        return mask

    __call__ = forward


def complex_loss(s_clean, s_hat, c, beta):
    """Compressed-spectrum loss combining magnitude and complex errors.

    (1-beta) * sum(||S|^c - |S_hat|^c|^2)
      + beta * sum(||S|^c e^{j phi_S} - |S_hat|^c e^{j phi_S_hat}|^2)
    """
    if s_clean.shape != s_hat.shape:
        raise ShapeError(f"loss operands differ in shape: {s_clean.shape} vs {s_hat.shape}")
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must lie in [0, 1], got {beta}")
    mag_term = ct.sum_abs2(
        ct.sub(ct.pow_re(ct.magnitude(s_clean), c), ct.pow_re(ct.magnitude(s_hat), c))
    )
    cplx_term = ct.sum_abs2(ct.sub(ct.compress_mag(s_clean, c), ct.compress_mag(s_hat, c)))
    return ct.add(ct.scale(mag_term, 1.0 - beta), ct.scale(cplx_term, beta))


class Adam:
    """Bias-corrected Adam applied independently to real and imaginary parts."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = float(lr)
        self.t = 0
        self.state = [
            [np.zeros_like(p.real), np.zeros_like(p.real),
             np.zeros_like(p.imag), np.zeros_like(p.imag)]
            for _, p in self.params
        ]

    def step(self, grads):
        """Apply one update from ``(grad_real, grad_imag)`` pairs, one per
        parameter in order, as :func:`ctensor.gradients` returns them."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        per_param = zip(self.params, grads, self.state, strict=True)
        for (name, p), (gr, gi), (mr, vr, mi, vi) in per_param:
            if not (np.all(np.isfinite(gr)) and np.all(np.isfinite(gi))):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            mr[:] = b1 * mr + (1 - b1) * gr
            vr[:] = b2 * vr + (1 - b2) * gr * gr
            mi[:] = b1 * mi + (1 - b1) * gi
            vi[:] = b2 * vi + (1 - b2) * gi * gi
            p.real = p.real - self.lr * (mr / bc1) / (np.sqrt(vr / bc2) + self.EPS)
            p.imag = p.imag - self.lr * (mi / bc1) / (np.sqrt(vi / bc2) + self.EPS)
            if not (np.all(np.isfinite(p.real)) and np.all(np.isfinite(p.imag))):
                raise TrainingError(f"non-finite value in parameter {name!r} after update")


def _image_tensors(images, dtype):
    data = np.stack([img.data for img in images])
    return ComplexTensor(
        np.ascontiguousarray(data.real, dtype=dtype)[..., None],
        np.ascontiguousarray(data.imag, dtype=dtype)[..., None],
    )


def _spectral_front_end(wf: WaveForm, cfg: ModelConfig):
    """(spec_x, images_in): the STFT of ``wf``, which the mask multiplies, and the
    network's input images, cut from it after PSD smoothing when that is on."""
    spec_x = stft(wf, cfg.frame_len, cfg.hop, cfg.fft_size)
    alpha = cfg.psd_smoothing_alpha
    smoothed = spec_x if alpha is None else psd_smooth(spec_x, alpha)
    return spec_x, make_spectral_images(smoothed, cfg.image_frames)


def load_training_images(manifest_path, cfg: ModelConfig, log=None):
    """Manifest -> aligned (input, raw reverberant, target) spectral image lists.

    Corrupt pairs, and pairs whose clean and reverberant WAVs differ in
    length, are skipped with a warning; if every pair is skipped a
    DataError names the first skip reason.  Without PSD smoothing ``inputs``
    and ``raws`` hold the same image objects.
    """
    rows = read_manifest(manifest_path)
    inputs, raws, targets = [], [], []
    reasons = []
    for row in rows:
        try:
            clean = read_wav(row["clean_path"], expected_rate=cfg.sample_rate)
            reverb = read_wav(row["reverb_path"], expected_rate=cfg.sample_rate)
            spec_x, img_in = _spectral_front_end(reverb, cfg)
            img_x = img_in
            if cfg.psd_smoothing_alpha is not None:  # the mask multiplies the unsmoothed STFT
                img_x = make_spectral_images(spec_x, cfg.image_frames)
            spec_s = stft(clean, cfg.frame_len, cfg.hop, cfg.fft_size)
            img_s = make_spectral_images(spec_s, cfg.image_frames)
            if len(clean) != len(reverb):
                raise DataError(f"{row['clean_path']} holds {len(clean)} samples but "
                                f"{row['reverb_path']} holds {len(reverb)}")
        except (OSError, DataError, ContractError, ShapeError) as exc:
            reason = str(exc)  # read_wav's messages name the file at fault
            if row["clean_path"] not in reason and row["reverb_path"] not in reason:
                reason = f"{row['clean_path']}, {row['reverb_path']}: {reason}"
            reasons.append(reason)
            if log is not None:
                log(f"warning: skipping pair: {reason}")
            continue
        inputs.extend(img_in)
        raws.extend(img_x)
        targets.extend(img_s)
    if not inputs:
        raise DataError(
            f"no usable pairs in {manifest_path} ({len(reasons)} skipped; first: {reasons[0]})"
        )
    return inputs, raws, targets, len(reasons)


def train(model: DccrnModel, manifest_path, out_dir, log=None):
    """Full training loop; writes loss.csv and per-epoch checkpoints.

    Returns (final_checkpoint_path, loss_rows) with loss_rows a list of
    (step, epoch, loss) tuples.
    """
    cfg = model.cfg
    inputs, raws, targets, _ = load_training_images(manifest_path, cfg, log=log)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dtype = cfg.np_dtype
    rng = np.random.default_rng(cfg.seed)
    named = model.parameters()
    params = [p for _, p in named]
    adam = Adam(named, lr=cfg.learning_rate)
    loss_rows = []
    step = 0
    n_images = len(inputs)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_images)
        for lo in range(0, n_images, cfg.batch_size):
            # canonical order inside the batch: shuffling chooses composition
            # only, keeping reductions bit-reproducible
            batch = np.sort(order[lo : lo + cfg.batch_size])
            x_in = _image_tensors([inputs[i] for i in batch], dtype)
            # without PSD smoothing ``raws`` holds the images of ``inputs``
            x_raw = x_in
            if cfg.psd_smoothing_alpha is not None:
                x_raw = _image_tensors([raws[i] for i in batch], dtype)
            s_clean = _image_tensors([targets[i] for i in batch], dtype)

            def build_loss():
                mask = model.forward(x_in, training=True)
                s_hat = ct.cmul(mask, x_raw)
                loss = complex_loss(s_clean, s_hat, cfg.compress_exponent, cfg.loss_beta)
                loss_val = float(loss.real)
                if not np.isfinite(loss_val):
                    raise TrainingError(f"non-finite loss {loss_val} at step {step}")
                return loss

            loss, grads = ct.gradients(build_loss, params)
            adam.step(grads)
            loss_rows.append((step, epoch, float(loss.real)))
            step += 1
        if log is not None and cfg.epochs:
            log(f"epoch {epoch}: loss {loss_rows[-1][2]:.6g} ({step} steps)")
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            model.save(out / f"ckpt_epoch{epoch:03d}.ckpt")

    final = out / "final.ckpt"
    model.save(final)
    with open(out / "loss.csv", "w") as fh:
        fh.write("step,epoch,loss\n")
        for s, e, v in loss_rows:
            fh.write(f"{s},{e},{v!r}\n")
    return final, loss_rows


def enhance_waveform(model: DccrnModel, wf: WaveForm) -> WaveForm:
    """stft -> images -> forward per batch -> reassemble masks -> apply_mask -> istft.

    The network's per-image masks are reassembled into one spectrogram, which
    drops the zero-padded frames of the last image and is zero at the Nyquist
    bin; :func:`signal.apply_mask` multiplies the unsmoothed STFT by it.
    Output length always equals the input length.  The model's sample rate
    must match the waveform's.
    """
    cfg = model.cfg
    if wf.sample_rate != cfg.sample_rate:
        raise ContractError(
            f"model expects {cfg.sample_rate} Hz audio, got {wf.sample_rate} Hz"
        )
    spec_x, images_in = _spectral_front_end(wf, cfg)
    masks = []
    for lo in range(0, len(images_in), cfg.batch_size):
        chunk = images_in[lo : lo + cfg.batch_size]
        mask = model.forward(_image_tensors(chunk, cfg.np_dtype), training=False)
        for img, m in zip(chunk, mask.to_complex()[..., 0]):
            masks.append(dataclasses.replace(img, data=m))
    return istft(apply_mask(reassemble_spectral_images(masks, spec_x), spec_x))
