"""The benchmark's workloads: set-up, one timed call, and output checks.

Every workload drives the public `gesturegen` API on corpora that
`gen_synthetic_dataset` writes from the workload seed; the program sees
only the generated files. Each is a closed loop with a single caller.
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

from gesturegen import config, harness, synthetic
from gesturegen.bvh import parse_bvh

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0       # corpus and model seed of the recorded reference run
LOSS_RTOL = 1e-6         # relative tolerance against the recorded losses
FIXED_POINT_TOL = 1e-9   # reference scored against itself: FGD 0, SRGR 1, BeatAlign 1
GEN_SEED_OFFSET = 1_000_003  # seed offset of eval's stand-in "generated" corpus
LOSS_KEYS = ("l_total", "l_g", "l_s", "l_e")


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                 # "train", "sample" or "eval"
    overrides: dict = field(default_factory=dict)  # on top of the toy preset
    steps: int = 0            # train: steps per run_train call; sample: checkpoint steps
    cold: bool = False        # eval: delete the extractor cache before every call


# Calls are kept short (1-6 s) so that a run makes several and reports
# their median.
WORKLOADS = {s.name: s for s in (
    Spec("train-60", "train", steps=3),
    Spec("train-300", "train", {"synthetic.frames": 300}, steps=2),
    Spec("sample-60", "sample", {"sample.max_conditions": 1}, steps=2),
    Spec("eval-cold-60", "eval", cold=True),
    Spec("eval-warm-60", "eval"),
)}

TINY_OVERRIDES = {
    "synthetic.n_clips": 4, "synthetic.joints": 3, "model.d": 16, "model.layers": 2,
    "model.n_state": 4, "model.window": 6, "train.batch": 2, "diffusion.steps": 5,
    "eval.extractor_steps": 5, "eval.extractor_hidden": 8,
}


def tiny(spec: Spec) -> Spec:
    """A seconds-scale variant of a workload, for the benchmark's own tests."""
    # run_eval rejects clips without a beat onset, which shorter clips can lack
    frames = max(60, spec.overrides.get("synthetic.frames", config.DEFAULTS["synthetic.frames"]) // 2)
    overrides = {**spec.overrides, **TINY_OVERRIDES, "synthetic.frames": frames}
    return replace(spec, name="tiny-" + spec.name, overrides=overrides, steps=2)


def make_config(spec: Spec, seed: int) -> dict:
    return config.load_config(None, preset="toy", overrides={**spec.overrides, "seed": seed})


def gen_corpus(cfg: dict, out: Path, seed: int) -> Path:
    spec = synthetic.SyntheticSpec.from_config(cfg)
    synthetic.gen_synthetic_dataset(replace(spec, seed=seed), out)
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class Check:
    """Outcome of one correctness check."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, bool(ok), detail

    def __repr__(self):
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# -- workloads -----------------------------------------------------------


class Workload:
    """Set-up, a timed `call`, and checks of what the calls produced.

    `call` returns (operations, clips): operations are training steps,
    sampled clips or eval calls; clips are clips trained, written or
    scored. The first call of a run warms up and is not timed into the
    metrics.
    """

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, Path(workdir)
        self.cfg = make_config(spec, seed)
        self.state = None

    def setup(self, dest: Path):
        """Write what the calls need under `dest`; returns the state
        that `call` reads from `self.state`."""
        raise NotImplementedError

    def call(self, index: int):
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError

    def summary(self, call_s: list) -> dict:
        """Workload-specific metrics (`train_clips_per_s`, `eval_cold_s`,
        ...) from the normalised seconds of the timed calls, for the log."""
        raise NotImplementedError


class Train(Workload):
    def __init__(self, spec, seed, workdir):
        super().__init__(spec, seed, workdir)
        self.cfg["train.steps"] = spec.steps
        self.losses = []  # loss rows of every call

    @property
    def clips_per_call(self) -> int:
        return self.spec.steps * min(self.cfg["train.batch"], self.cfg["synthetic.n_clips"])

    def setup(self, dest):
        return gen_corpus(self.cfg, dest / "data", self.seed)

    def call(self, index):
        result = harness.run_train(self.cfg, self.state, self.workdir / "run")
        self.losses.append([[row[k] for k in LOSS_KEYS] for row in result["loss_rows"]])
        return self.spec.steps, self.clips_per_call

    def reference_losses(self) -> list:
        """Loss rows of a run at the reference seed on its own corpus."""
        cfg = make_config(self.spec, REFERENCE_SEED)
        cfg["train.steps"] = self.spec.steps
        ref_dir = self.workdir / "reference"
        data = gen_corpus(cfg, ref_dir / "data", REFERENCE_SEED)
        rows = harness.run_train(cfg, data, ref_dir / "run")["loss_rows"]
        shutil.rmtree(ref_dir)
        return [[row[k] for k in LOSS_KEYS] for row in rows]

    def checks(self):
        out = [Check("losses finite", all(_finite(r) for call in self.losses for r in call),
                     f"{len(self.losses)} calls x {self.spec.steps} steps"),
               Check("losses identical across calls",
                     all(call == self.losses[0] for call in self.losses),
                     "same seed, same corpus")]
        recorded = load_reference().get(self.spec.name)
        if recorded is None:
            out.append(Check("losses match reference", False, f"none recorded for {self.spec.name}"))
            return out
        got = self.reference_losses()
        ok = len(got) == len(recorded) and all(
            math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=0.0)
            for row_a, row_b in zip(got, recorded) for a, b in zip(row_a, row_b))
        out.append(Check("losses match reference", ok,
                         f"seed {REFERENCE_SEED}, rtol {LOSS_RTOL}, l_total {got[-1][0]:.10f} "
                         f"vs {recorded[-1][0]:.10f}"))
        return out

    def summary(self, call_s):
        last = self.losses[0][-min(4, len(self.losses[0])):]
        return {"train_clips_per_s": (self.clips_per_call / median(call_s), "1/s"),
                "train_loss": (sum(r[0] for r in last) / len(last), "loss")}


class Sample(Workload):
    def __init__(self, spec, seed, workdir):
        super().__init__(spec, seed, workdir)
        self.outputs = []  # written paths per call

    def setup(self, dest):
        data = gen_corpus(self.cfg, dest / "data", self.seed)
        train_cfg = dict(self.cfg, **{"train.steps": self.spec.steps})
        ckpt = harness.run_train(train_cfg, data, dest / "train")["checkpoint"]
        return data, ckpt

    def call(self, index):
        data, ckpt = self.state
        written = harness.run_sample(ckpt, data, n=self.cfg["sample.n"], seed=self.seed,
                                     out_dir=self.workdir / f"samples-{index}",
                                     max_conditions=self.cfg["sample.max_conditions"])
        if index >= 2:  # the first two calls are compared byte for byte
            self.outputs.append(None)
            shutil.rmtree(self.workdir / f"samples-{index}")
        else:
            self.outputs.append(written)
        return len(written), len(written)

    def checks(self):
        frames, joints = self.cfg["synthetic.frames"], self.cfg["synthetic.joints"]
        expected = self.cfg["sample.n"] * min(self.cfg["sample.max_conditions"],
                                              self.cfg["synthetic.n_clips"])
        first = self.outputs[0]
        shapes_ok = len(first) == expected
        for path in first:
            skeleton, clip = parse_bvh(path.read_text())
            shapes_ok &= clip.frames == frames and len(skeleton.joints) == joints
        same = [a.read_bytes() == b.read_bytes() for a, b in zip(first, self.outputs[1])]
        return [Check("samples parse back", shapes_ok,
                      f"{len(first)} BVH files of {frames} frames x {joints} joints"),
                Check("samples byte-identical across runs",
                      len(same) == len(first) and all(same), "two run_sample calls, one seed")]

    def summary(self, call_s):
        return {"sample_clips_per_s": (len(self.outputs[0]) / median(call_s), "1/s")}


class Eval(Workload):
    def __init__(self, spec, seed, workdir):
        super().__init__(spec, seed, workdir)
        self.reports = []

    def setup(self, dest):
        ref = gen_corpus(self.cfg, dest / "ref", self.seed)
        gen = gen_corpus(self.cfg, dest / "gen", self.seed + GEN_SEED_OFFSET)
        return gen, ref

    def call(self, index):
        gen, ref = self.state
        if self.spec.cold:
            (ref / "fgd_extractor.ckpt").unlink(missing_ok=True)
        report = harness.run_eval(gen, ref, self.cfg)
        self.reports.append(report)
        return 1, report["n_gen"]

    def checks(self):
        _, ref = self.state
        numeric = [[r[k] for k in ("fgd", "diversity", "l1div", "beat_align", "srgr")]
                   for r in self.reports]
        # a warm run's first call trains the extractor; later calls load it
        # from the float32 cache, so only they must agree with each other
        same = self.reports if self.spec.cold else self.reports[1:]
        own = harness.run_eval(ref, ref, self.cfg)
        fixed = (abs(own["fgd"]) <= FIXED_POINT_TOL and abs(own["srgr"] - 1.0) <= FIXED_POINT_TOL
                 and abs(own["beat_align"] - 1.0) <= FIXED_POINT_TOL)
        return [Check("reports finite", all(_finite(v) for v in numeric),
                      f"{len(self.reports)} reports"),
                Check("reports identical across calls", all(r == same[0] for r in same),
                      f"{len(same)} reports"),
                Check("reference against itself is the fixed point", fixed,
                      f"fgd {own['fgd']:.3g}, srgr {own['srgr']}, beat_align {own['beat_align']}, "
                      f"tol {FIXED_POINT_TOL}")]

    def summary(self, call_s):
        return {"eval_cold_s" if self.spec.cold else "eval_warm_s": (median(call_s), "s")}


KINDS = {"train": Train, "sample": Sample, "eval": Eval}


def build(spec: Spec, seed: int, workdir: Path) -> Workload:
    return KINDS[spec.kind](spec, seed, workdir)

