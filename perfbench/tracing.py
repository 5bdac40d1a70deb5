"""Span tracing for the traced benchmark run.

The tracer records spans from outside the program: :func:`installed`
replaces functions and methods at the names their callers resolve (``model``
imports ``stft`` and ``complex_conv2d`` by name, ``cli`` imports ``train``
and ``read_wav`` by name, so patching only the defining module would miss
those calls) and restores them on exit.  Backward time, calls and output
bytes per tape op come from wrapping every vjp as ``GradTape.record``
receives it.

A span is ``(name, start, end, parent, ident)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``ident`` names the operation it
belongs to, down to the training step (``c0.train.sdab.s3``) or the clip
(``c0.enhance.clip02``).  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import dereverb.attention as attention_mod
import dereverb.cli as cli_mod
import dereverb.ctensor as ctensor_mod
import dereverb.datasynth as datasynth_mod
import dereverb.layers as layers_mod
import dereverb.metrics as metrics_mod
import dereverb.model as model_mod

# ops whose vjps get their own per-layer rows (every op is still traced)
VJP_OPS = (
    "complex_conv2d",
    "complex_conv_transpose2d",
    "matmul",
    "matmul_split",
    "index_axis",
    "stack",
    "mul_split",
    "softmax_rows",
    "mean_axes",
)
CONV_OPS = ("complex_conv2d", "complex_conv_transpose2d")
BLOCK_VARIANTS = ("sdab", "conventional", "complex")  # variants with a block


class Tracer:
    """In-memory span log plus the exact counters kept beside it.

    Span fields are kept column-wise in typed arrays, names and idents as
    indices into small tables: a container object per span would give the
    cyclic garbage collector hundreds of thousands of objects to walk, and
    its cost would grow during the run.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.name_ids, self.ident_ids = array("q"), array("q"), array("q")
        self.strings, self._string_ids = [], {}
        self.stack = []
        self.phase = "setup"
        self.op = "setup"
        self.ident = "setup"
        self.variant = None
        self.in_train = False
        self.steps_in_op = 0
        self.step_span = None
        # counts[phase][key]; keys are tuples so layer names never collide
        self.counts = defaultdict(lambda: defaultdict(float))
        self.vjp_keys = {}

    def count(self, key, amount=1):
        self.counts[self.phase][key] += amount

    @property
    def spans(self):
        """Spans as ``(name, start, end, parent, ident)`` tuples."""
        text = self.strings
        return [
            (text[n], s, e, p, text[i])
            for n, s, e, p, i in zip(
                self.name_ids, self.starts, self.ends, self.parents, self.ident_ids
            )
        ]

    def _string_id(self, text):
        sid = self._string_ids.get(text)
        if sid is None:
            sid = self._string_ids[text] = len(self.strings)
            self.strings.append(text)
        return sid

    def open(self, name):
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(self._string_id(name))
        self.ident_ids.append(self._string_id(self.ident))
        self.ends.append(math.nan)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close_to(self, idx):
        """Close every open span down to and including ``idx``."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.ends[top] = now
            if top == idx:
                return
        raise RuntimeError(f"span {idx} was not open")

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close_to(idx)

    def begin_op(self, phase, ident, variant=None):
        self.phase, self.op, self.ident, self.variant = phase, ident, ident, variant

    # -- training steps -------------------------------------------------------
    # A step runs from the previous step end (or the train() call) to the
    # moment Adam.step returns, as the untraced step times do.

    def _open_step(self):
        self.ident = f"{self.op}.s{self.steps_in_op}"
        self.step_span = self.open("model.step")

    def start_train(self):
        self.in_train = True
        self.steps_in_op = 0
        self._open_step()

    def end_step(self):
        self.close_to(self.step_span)
        self.steps_in_op += 1
        self.count(("steps", self.variant))
        self._open_step()

    def end_train(self):
        # what follows the last Adam step (final checkpoint, loss.csv)
        self.name_ids[self.step_span] = self._string_id("model.train_tail")
        self.close_to(self.step_span)
        self.ident = self.op
        self.in_train = False


def _traced(tracer, fn, name, before=None):
    """``fn`` wrapped in a span; ``before(args, kwargs)`` may rename it."""
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = before(args, kwargs) if before is not None else name
        idx = tracer.open(span_name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.count(("errors", layer))
            raise
        finally:
            tracer.close_to(idx)

    return wrapper


def _conv_cost(op, x, w):
    """Forward GEMM FLOPs and bytes of one complex conv call, from shapes.

    Each conv is four real GEMMs (real/imag parts of input and kernel).
    Conv: M = B*To*Fo output positions, K = C_in*kt*kf, N = C_out.
    Conv-transpose: M = B*Ti*Fi input positions, K = C_in, N = C_out*kt*kf.
    """
    item = x.real.dtype.itemsize
    batch = 1 if x.ndim == 3 else x.shape[0]
    t_in, f_in = x.shape[-3], x.shape[-2]
    if op == "complex_conv2d":
        c_out, c_in, kt, kf = w.shape
        return batch * t_in * f_in, c_in * kt * kf, c_out, item
    c_in, c_out, kt, kf = w.shape
    return batch * t_in * f_in, c_in, c_out * kt * kf, item


def _conv_wrapper(tracer, fn, op):
    name = f"layers.{op}"

    @functools.wraps(fn)
    def wrapper(x, w, *args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(x, w, *args, **kwargs)
        except BaseException:
            tracer.count(("errors", "layers"))
            raise
        finally:
            tracer.close_to(idx)
        if op == "complex_conv2d":
            # im2col rows are output positions; the output has that count
            m, k, n, item = _conv_cost(op, out, w)
        else:
            m, k, n, item = _conv_cost(op, x, w)
        flops, nbytes = 8 * m * k * n, 4 * (m * k + k * n + m * n) * item
        tracer.count(("conv_calls", op))
        tracer.count(("conv_flops", op), flops)
        tracer.count(("conv_bytes", op), nbytes)
        if tracer.in_train:
            tracer.count(("step_flops", op, tracer.variant), flops)
            tracer.count(("step_bytes", op, tracer.variant), nbytes)
        return out

    return wrapper


def _timed_vjp(tracer, op, vjp):
    """``vjp`` timed into per-op counters.

    Backward runs thousands of vjps per step, so they are counted rather
    than recorded as spans; ``ctensor.backward`` self time includes them.
    """
    keys = tracer.vjp_keys.get(op)
    if keys is None:
        keys = tracer.vjp_keys[op] = (("vjp_s", op), ("vjp_calls", op), ("vjp_bytes", op))
    key_s, key_calls, key_bytes = keys

    def run(gr, gi):
        start = time.perf_counter()
        try:
            out = vjp(gr, gi)
        except BaseException:
            tracer.count(("errors", "ctensor"))
            raise
        counts = tracer.counts[tracer.phase]
        counts[key_s] += time.perf_counter() - start
        counts[key_calls] += 1
        counts[key_bytes] += out[0].nbytes + out[1].nbytes
        return out

    return run


def _patches(tracer):
    """(owner, attribute, replacement) for every traced call site."""
    M, C, L = model_mod, cli_mod, layers_mod
    t = functools.partial(_traced, tracer)
    out = []

    def add(owners, attr, make):
        for owner in owners:
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                out.append((owner, attr, classmethod(make(static.__func__))))
            else:
                out.append((owner, attr, make(getattr(owner, attr))))

    def train_make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("model.train"):
                tracer.start_train()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    tracer.count(("errors", "model"))
                    raise
                finally:
                    tracer.end_train()

        return wrapper

    def adam_make(fn):
        inner = t(fn, "model.adam")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if tracer.in_train:
                tracer.end_step()
            return out

        return wrapper

    def backward_make(fn):
        def nodes(args, kwargs):
            tracer.count(("tape_nodes", tracer.variant), len(args[0]))
            return "ctensor.backward"

        return t(fn, "ctensor.backward", before=nodes)

    def record_make(fn):
        @functools.wraps(fn)
        def record(self, op, inputs, vjps):
            return fn(self, op, inputs, tuple(_timed_vjp(tracer, op, v) for v in vjps))

        return record

    def save_make(fn):
        inner = t(fn, "checkpoint.save")

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = inner(path, *args, **kwargs)
            tracer.count(("checkpoint_bytes",), os.path.getsize(path))
            return out

        return wrapper

    def attention_name(args, kwargs):
        return f"attention.block.{args[0].variant}"

    add([M, C], "train", train_make)
    add([M], "load_training_images", lambda f: t(f, "model.load_training_images"))
    add([M.DccrnModel], "forward", lambda f: t(f, "model.forward"))
    add([M.DccrnModel], "__call__", lambda f: t(f, "model.forward"))
    add([M.DccrnModel], "from_checkpoint", lambda f: t(f, "model.from_checkpoint"))
    add([M], "complex_loss", lambda f: t(f, "model.loss"))
    add([M.Adam], "step", adam_make)
    add([M, C], "enhance_waveform", lambda f: t(f, "model.enhance"))
    add([ctensor_mod.GradTape], "backward", backward_make)
    add([ctensor_mod.GradTape], "record", record_make)
    add([L, M], "complex_conv2d", lambda f: _conv_wrapper(tracer, f, "complex_conv2d"))
    add([L], "complex_conv_transpose2d",
        lambda f: _conv_wrapper(tracer, f, "complex_conv_transpose2d"))
    add([L.ComplexBatchNorm], "__call__", lambda f: t(f, "layers.batchnorm"))
    add([L.ComplexGruCell], "run", lambda f: t(f, "layers.gru_run"))
    add([attention_mod.TFAttentionBlock], "__call__",
        lambda f: t(f, "attention.block", before=attention_name))
    add([M], "stft", lambda f: t(f, "signal.stft"))
    add([M], "istft", lambda f: t(f, "signal.istft"))
    add([M], "make_spectral_images", lambda f: t(f, "signal.images"))
    add([M], "reassemble_spectral_images", lambda f: t(f, "signal.images"))
    add([M, C, metrics_mod], "read_wav", lambda f: t(f, "signal.read_wav"))
    add([C, datasynth_mod], "write_wav", lambda f: t(f, "signal.write_wav"))
    add([M], "save_checkpoint", save_make)
    add([M], "load_checkpoint", lambda f: t(f, "checkpoint.load"))
    add([datasynth_mod, C], "generate_dataset", lambda f: t(f, "datasynth.generate_dataset"))
    for fn_name in ("cepstral_distance", "llr", "fwsegsnr"):
        add([metrics_mod], fn_name, lambda f, n=fn_name: t(f, f"metrics.{n}"))
    return out


@contextmanager
def installed(tracer):
    """Trace every call site while the block runs; restore them after."""
    patches = _patches(tracer)
    saved = [(owner, attr, inspect.getattr_static(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def in_loop(span):
    """Whether a span belongs to the measured loop (idents ``c<k>...``)."""
    ident = span[4]
    return len(ident) > 1 and ident[0] == "c" and ident[1].isdigit()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: (duration, time covered by its children, self time)."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        cover = _covered(children.get(i, ()))
        out.append((end - start, cover, end - start - cover))
    return out


def per_layer_metrics(tracer, cycles, setups, overhead_frac):
    """The per-layer table: name -> (value, unit).

    Times and counts are normalised by the work unit they belong to: tape
    and vjp figures per training step, layer figures per workload cycle,
    data synthesis per set-up.  Only spans of the measured loop count,
    except for ``datasynth`` (set-up) and ``.errors`` (whole run).
    """
    spans = tracer.spans
    loop = [s for s in spans if in_loop(s)]
    timing = self_times(spans)
    incl = defaultdict(float)
    for span in loop:
        incl[span[0]] += (span[2] - span[1]) * 1e3
    setup_ms = defaultdict(float)
    for span in spans:
        if span[4].startswith("setup"):
            setup_ms[span[0]] += (span[2] - span[1]) * 1e3
    counts = tracer.counts["loop"]
    errors = defaultdict(float)
    for phase_counts in tracer.counts.values():
        for key, value in phase_counts.items():
            if key[0] == "errors":
                errors[key[1]] += value
    steps_by_variant = {k[1]: v for k, v in counts.items() if k[0] == "steps"}
    steps = max(1.0, sum(steps_by_variant.values()))
    per_cycle = 1.0 / max(1, cycles)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("ctensor.backward_ms", incl["ctensor.backward"] / steps, "ms/step")
    for v in model_mod.ATTENTION_VARIANTS:
        n = steps_by_variant.get(v, 0.0)
        put(f"ctensor.tape_nodes_per_step.{v}",
            counts[("tape_nodes", v)] / n if n else 0.0, "count/step")
    for op in VJP_OPS:
        put(f"ctensor.vjp_ms.{op}", counts[("vjp_s", op)] * 1e3 / steps, "ms/step")
        put(f"ctensor.vjp_calls.{op}", counts[("vjp_calls", op)] / steps, "count/step")
        put(f"ctensor.vjp_out_bytes.{op}", counts[("vjp_bytes", op)] / steps, "B/step")
    for op in CONV_OPS:
        put(f"layers.{op}.fwd_ms", incl[f"layers.{op}"] * per_cycle, "ms/cycle")
        put(f"layers.{op}.calls", counts[("conv_calls", op)] * per_cycle, "count/cycle")
        put(f"layers.{op}.flops", counts[("conv_flops", op)] * per_cycle, "flop/cycle")
        put(f"layers.{op}.bytes", counts[("conv_bytes", op)] * per_cycle, "B/cycle")
        for v in model_mod.ATTENTION_VARIANTS:
            n = steps_by_variant.get(v, 0.0)
            put(f"layers.{op}.step_flops.{v}",
                counts[("step_flops", op, v)] / n if n else 0.0, "flop/step")
            put(f"layers.{op}.step_bytes.{v}",
                counts[("step_bytes", op, v)] / n if n else 0.0, "B/step")
    put("layers.batchnorm.fwd_ms", incl["layers.batchnorm"] * per_cycle, "ms/cycle")
    put("layers.gru_run.fwd_ms", incl["layers.gru_run"] * per_cycle, "ms/cycle")
    for v in BLOCK_VARIANTS:
        put(f"attention.block.fwd_ms.{v}", incl[f"attention.block.{v}"] * per_cycle, "ms/cycle")
    for metric, span in (
        ("forward_ms", "model.forward"),
        ("loss_ms", "model.loss"),
        ("adam_ms", "model.adam"),
        ("load_training_images_ms", "model.load_training_images"),
        ("train_ms", "model.train"),
        ("enhance_ms", "model.enhance"),
    ):
        put(f"model.{metric}", incl[span] * per_cycle, "ms/cycle")
    for metric in ("stft", "istft", "images", "read_wav", "write_wav"):
        put(f"signal.{metric}_ms", incl[f"signal.{metric}"] * per_cycle, "ms/cycle")
    put("checkpoint.save_ms", incl["checkpoint.save"] * per_cycle, "ms/cycle")
    put("checkpoint.load_ms", incl["checkpoint.load"] * per_cycle, "ms/cycle")
    put("checkpoint.bytes", counts[("checkpoint_bytes",)] * per_cycle, "B/cycle")
    put("datasynth.generate_dataset_ms",
        setup_ms["datasynth.generate_dataset"] / max(1, setups), "ms/setup")
    for metric in ("cepstral_distance", "llr", "fwsegsnr"):
        put(f"metrics.{metric}_ms", incl[f"metrics.{metric}"] * per_cycle, "ms/cycle")
    for layer in ("ctensor", "layers", "attention", "model", "signal", "checkpoint",
                  "datasynth", "metrics"):
        put(f"{layer}.errors", errors[layer], "count")

    def covered_frac(name):
        total = cover = 0.0
        for span, (dur, cov, _) in zip(spans, timing):
            if span[0] == name and in_loop(span):
                total += dur
                cover += cov
        return cover / total if total else 0.0

    put("trace.overhead_frac", overhead_frac, "ratio")
    put("trace.step_covered_frac", covered_frac("model.step"), "ratio")
    put("trace.clip_covered_frac", covered_frac("op.enhance"), "ratio")
    return m


def self_time_table(tracer, cycles):
    """Rows (name, calls, inclusive ms/cycle, self ms/cycle) of the loop."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    spans = tracer.spans
    for span, (dur, _, own) in zip(spans, self_times(spans)):
        if not in_loop(span):
            continue
        row = rows[span[0]]
        row[0] += 1
        row[1] += dur * 1e3 / max(1, cycles)
        row[2] += own * 1e3 / max(1, cycles)
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])
