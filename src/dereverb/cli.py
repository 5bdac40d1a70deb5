"""Command-line front-end: synth | train | enhance | eval | gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/config error (a file that
cannot be read or written included), 3 numerical failure (NaN loss, failed
gradient check).  Every subcommand with file outputs writes a ``run.json``
record of its resolved settings alongside them; the record carries no
timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_model_config, load_synth_config
from .datasynth import generate_dataset
from .errors import DataError, DereverbError, TrainingError
from .gradcheck import run_suite
from .metrics import evaluate_dirs
from .model import DccrnModel, enhance_waveform, train
from .signal import read_wav, write_wav


class UsageError(DereverbError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="dereverb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dereverb {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic reverberant/clean dataset")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="synthesis config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--config", default=None, help="model config file")
    p.add_argument("--data", required=True, help="manifest CSV from synth")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")

    p = sub.add_parser("enhance", help="dereverberate one WAV file")
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--in", dest="infile", required=True, help="input WAV")
    p.add_argument("--out", required=True, help="output WAV")

    p = sub.add_parser("eval", help="score enhanced audio against references")
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--test-dir", required=True)
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    p.add_argument("--seed", type=int, default=0)
    return parser


# built once per process: parse_args leaves the parser and its defaults as they were
_PARSER = _build_parser()


def _write_run_record(path, command, argv, settings, outputs):
    record = {
        "command": command,
        "argv": list(argv),
        "package_version": __version__,
        "resolved_settings": settings,
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_synth(args, argv):
    cfg = load_synth_config(args.config, args.overrides)
    out = Path(args.out)
    manifest = generate_dataset(args.n, seed=args.seed, out_dir=out, cfg=cfg)
    settings = dataclasses.asdict(cfg)
    settings.update({"n": args.n, "seed": args.seed})
    _write_run_record(out / "run.json", "synth", argv, settings, {"manifest": manifest.name})
    print(f"wrote {args.n} pairs; manifest: {manifest}")
    return 0


def _cmd_train(args, argv):
    cfg = load_model_config(args.config, args.overrides)
    out = Path(args.out)
    model = DccrnModel(cfg)
    final, rows = train(model, args.data, out, log=lambda m: print(m, file=sys.stderr))
    _write_run_record(
        out / "run.json",
        "train",
        argv,
        dataclasses.asdict(cfg),
        {"checkpoint": final.name, "loss_csv": "loss.csv", "steps": len(rows)},
    )
    final_loss = f"; final loss {rows[-1][2]:.6g}" if rows else ""
    print(f"trained {len(rows)} steps{final_loss}; checkpoint: {final}")
    return 0


def _cmd_enhance(args, argv):
    t0 = time.perf_counter()
    model = DccrnModel.from_checkpoint(args.ckpt)
    wf = read_wav(args.infile, expected_rate=model.cfg.sample_rate)
    enhanced = enhance_waveform(model, wf)
    if not np.isfinite(enhanced.samples).all():
        raise DataError(f"{args.ckpt}: the model's output is not finite; no WAV written")
    peak = float(np.max(np.abs(enhanced.samples))) if len(enhanced) else 0.0
    if peak > 1.0:
        enhanced.samples = enhanced.samples * (0.99 / peak)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_wav(out, enhanced)
    _write_run_record(
        out.with_name(out.name + ".run.json"),
        "enhance",
        argv,
        {"checkpoint": str(args.ckpt), "model_config": dataclasses.asdict(model.cfg),
         "normalized": peak > 1.0},
        {"wav": out.name},
    )
    wall, audio = time.perf_counter() - t0, len(wf) / wf.sample_rate
    print(f"enhance: {wall:.3f} s wall for {audio:.3f} s of audio (RTF {wall / audio:.3f})",
          file=sys.stderr)
    print(f"enhanced {args.infile} -> {out}")
    return 0


def _cmd_eval(args, argv):
    report = evaluate_dirs(args.ref_dir, args.test_dir)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report.write_csv(out)
    mc, ml, mf = report.means()
    _write_run_record(
        out.with_name(out.name + ".run.json"),
        "eval",
        argv,
        {"ref_dir": str(args.ref_dir), "test_dir": str(args.test_dir)},
        {"csv": out.name, "mean_cd": mc, "mean_llr": ml, "mean_fwsegsnr": mf},
    )
    print(f"{len(report.rows)} utterances: CD {mc:.4f}  LLR {ml:.4f}  FWSegSNR {mf:.4f}")
    return 0


def _cmd_gradcheck(args, argv):
    ok, _ = run_suite(seed=args.seed, report=print)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print("all gradient checks passed")
    return 0


_DISPATCH = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "enhance": _cmd_enhance,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(argv)
        return _DISPATCH[args.cmd](args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DereverbError, OSError) as exc:  # an OS error's message names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
