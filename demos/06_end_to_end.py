"""Tiny end-to-end run: synthetic data -> train -> sample -> evaluate.

Everything happens in a temporary directory, removed at the end, with a
deliberately small model (a few dozen training steps), so this finishes in
about a minute.
The same flow is available from the command line:

    gesturegen gen-synthetic --config run.cfg --out data/
    gesturegen train         --config run.cfg --out run/
    gesturegen sample        --config run.cfg --out samples/
    gesturegen eval          --config run.cfg --out eval/
"""
import tempfile
from pathlib import Path

from gesturegen.config import load_config
from gesturegen.harness import run_eval, run_sample, run_train
from gesturegen.synthetic import SyntheticSpec, gen_synthetic_dataset

with tempfile.TemporaryDirectory(prefix="gesturegen_demo_") as tmp:
    root = Path(tmp)
    print(f"working in {root}")

    cfg = load_config(preset="toy", overrides={
        "synthetic.n_clips": 6, "synthetic.frames": 60, "synthetic.joints": 4,
        "model.d": 32, "model.layers": 2, "train.steps": 40,
        "diffusion.steps": 10, "eval.extractor_steps": 60,
        "sample.max_conditions": 2, "sample.n": 2,
    })

    print("\n== 1. synthetic corpus ==")
    files = gen_synthetic_dataset(SyntheticSpec.from_config(cfg), root / "data")
    print(f"wrote {len(files)} files (BVH + audio/text features + labels + onsets)")

    print("\n== 2. train ==")
    result = run_train(cfg, root / "data", root / "run")
    first, last = result["loss_rows"][0], result["loss_rows"][-1]
    print(f"l_total {first['l_total']:.4f} (step 0) -> {last['l_total']:.4f} "
          f"(step {cfg['train.steps'] - 1})")
    print(f"checkpoint: {result['checkpoint'].name}, loss log: loss.csv")

    print("\n== 3. sample ==")
    written = run_sample(result["checkpoint"], root / "data", n=cfg["sample.n"],
                         seed=cfg["seed"], out_dir=root / "samples",
                         max_conditions=cfg["sample.max_conditions"])
    print(f"generated {len(written)} BVH clips: {[p.name for p in written]}")

    print("\n== 4. evaluate ==")
    report = run_eval(root / "samples", root / "data", cfg, out_dir=root / "eval")
    for k in ("fgd", "diversity", "l1div", "srgr", "beat_align"):
        print(f"{k:10s} {report[k]:.4f}")
    print("\n(40 steps is nowhere near convergence; the full toy preset runs")
    print("300 steps and is exercised by the acceptance tests.)")
