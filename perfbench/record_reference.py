"""Record the reference probe outputs that every benchmark run checks against.

Run from the root of a checkout after a change that is meant to alter the
model's numbers (and say so in the change):

    python3 perfbench/record_reference.py

For each scale and attention variant it stores the first-step training loss
on the fixed probe clip and the probe clip enhanced with the seeded initial
checkpoint, in ``perfbench/reference/``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    reference = {
        "probe_seed": workloads.PROBE_SEED,
        "probe_seconds": workloads.PROBE_SECONDS,
    }
    for scale, name in (("desk", "train-desk"), ("paper", "paper-b1")):
        work = ROOT / ".bench_work" / f"reference-{scale}-{os.getpid()}"
        runner = workloads.Runner(workloads.WORKLOADS[name].smoke(), 0, work)
        try:
            runner.setup(0)
            entries = {}
            for variant in workloads.VARIANTS:
                loss, wav = runner.probe_output(variant)
                if wav is None:
                    raise SystemExit(f"enhance of the probe failed for {scale}/{variant}")
                target = f"{scale}_{variant}.wav"
                shutil.copyfile(wav, out / target)
                entries[variant] = {"loss": loss, "wav": target}
                print(f"{scale:6} {variant:13} loss {loss!r}")
            reference[scale] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(out / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
