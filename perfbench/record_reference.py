"""Record the reference losses that the train workloads are checked against.

    python3 perfbench/record_reference.py

Runs each train workload (and its tiny test variant) once at
REFERENCE_SEED and writes the per-step losses to reference.json. Re-run
only when a change is meant to alter what training computes, and say so
in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    specs = [s for s in workloads.WORKLOADS.values() if s.kind == "train"]
    specs += [workloads.tiny(s) for s in specs]
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for spec in specs:
            train = workloads.build(spec, workloads.REFERENCE_SEED, Path(tmp))
            recorded[spec.name] = train.reference_losses()
            print(spec.name, recorded[spec.name][-1][0])
    workloads.REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
