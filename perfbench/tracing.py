"""Span tracing installed from outside the package.

`Tracer.install` wraps the public functions of every gesturegen layer
module, plus a few class methods, and rebinds each wrapper wherever the
original is bound: the defining module and every module that imported it
by name (``harness`` imports ``clip_to_euler``, ``sample_loop`` and
``read_checkpoint`` that way; ``metrics`` and ``synthetic`` import from
``bvh``). Spans live in memory as ``[name, parent, start, end]`` lists
and are written out by `Tracer.dump`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# The package's modules that do measurable work; `config`, `cli` and
# `errors` do none.
LAYERS = ("ssm", "autodiff", "fusion", "denoiser", "diffusion", "bvh", "rotations",
          "metrics", "fileio", "synthetic", "harness")

# Class methods traced alongside the module-level functions.
METHODS = (("autodiff", "Tensor", "backward"),
           ("denoiser", "AdamW", "step"),
           ("metrics", "FeatureExtractor", "features"))

SCAN = "ssm.selective_scan_fused"
SCAN_BWD = SCAN + ".bwd"
FLOAT64_BYTES = 8

# (per-layer metric, statistic, span name). Statistic is one of
# "incl" (summed span durations), "self" (durations minus child spans)
# or "calls".
SPAN_METRICS = (
    ("ssm.scan_fwd_s", "incl", SCAN),
    ("ssm.scan_bwd_s", "incl", SCAN_BWD),
    ("ssm.scan_calls", "calls", SCAN),
    ("ssm.mamba_self_s", "self", "ssm.mamba_block_forward"),
    ("autodiff.backward_s", "incl", "autodiff.Tensor.backward"),
    ("autodiff.backward_self_s", "self", "autodiff.Tensor.backward"),
    ("autodiff.matmul_s", "incl", "autodiff.matmul"),
    ("autodiff.matmul_calls", "calls", "autodiff.matmul"),
    ("autodiff.attention_s", "incl", "autodiff.scaled_dot_attention"),
    ("autodiff.layer_norm_s", "incl", "autodiff.layer_norm"),
    ("fusion.encode_s", "incl", "fusion.encode_conditions"),
    ("fusion.encode_calls", "calls", "fusion.encode_conditions"),
    ("fusion.forward_s", "incl", "fusion.fusion_forward"),
    ("fusion.forward_calls", "calls", "fusion.fusion_forward"),
    ("denoiser.forward_s", "incl", "denoiser.denoiser_forward"),
    ("denoiser.adamw_s", "incl", "denoiser.AdamW.step"),
    ("denoiser.adamw_calls", "calls", "denoiser.AdamW.step"),
    ("denoiser.predict_x0_calls", "calls", "denoiser.predict_x0"),
    ("diffusion.sample_loop_s", "incl", "diffusion.sample_loop"),
    ("diffusion.sample_loop_self_s", "self", "diffusion.sample_loop"),
    ("bvh.parse_s", "incl", "bvh.parse_bvh"),
    ("bvh.parse_calls", "calls", "bvh.parse_bvh"),
    ("bvh.write_s", "incl", "bvh.write_bvh"),
    ("bvh.write_calls", "calls", "bvh.write_bvh"),
    ("bvh.to_rotmat_s", "incl", "bvh.clip_to_rotmat"),
    ("bvh.to_rotmat_calls", "calls", "bvh.clip_to_rotmat"),
    ("bvh.to_euler_s", "incl", "bvh.clip_to_euler"),
    ("bvh.to_euler_calls", "calls", "bvh.clip_to_euler"),
    ("bvh.features_to_clip_s", "incl", "bvh.features_to_clip"),
    ("bvh.features_to_clip_calls", "calls", "bvh.features_to_clip"),
    ("rotations.euler_to_rotmat_s", "incl", "rotations.euler_to_rotmat"),
    ("rotations.euler_to_rotmat_calls", "calls", "rotations.euler_to_rotmat"),
    ("rotations.rotmat_to_euler_s", "incl", "rotations.rotmat_to_euler"),
    ("rotations.rotmat_to_euler_calls", "calls", "rotations.rotmat_to_euler"),
    ("rotations.nearest_rotation_s", "incl", "rotations.nearest_rotation"),
    ("rotations.nearest_rotation_calls", "calls", "rotations.nearest_rotation"),
    ("metrics.extractor_train_s", "incl", "metrics.train_fgd_extractor"),
    ("metrics.features_s", "incl", "metrics.FeatureExtractor.features"),
    ("metrics.frechet_s", "incl", "metrics.frechet_distance"),
    ("metrics.srgr_s", "incl", "metrics.srgr"),
    ("metrics.beat_align_s", "incl", "metrics.beat_align"),
    ("fileio.ckpt_write_s", "incl", "fileio.write_checkpoint"),
    ("fileio.ckpt_read_s", "incl", "fileio.read_checkpoint"),
    ("harness.load_model_s", "incl", "harness.load_model"),
    ("harness.get_extractor_s", "incl", "harness.get_extractor"),
    ("synthetic.load_dataset_s", "incl", "synthetic.load_dataset"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []     # [name, parent index or -1, start, end]
        self.counters = defaultdict(float)
        self._open = []     # indices of the spans still open, innermost last
        self._patches = []  # (owner, attribute, original) to restore

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, perf_counter(), None])
        self._open.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][3] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def _wrap_scan(self, fn):
        """Forward span, a span around the returned tensor's backward
        closure, and the computed size of the L x C x N float64 arrays
        (`abar` and `h`) that the closure holds."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(SCAN)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            length, channels = out.value.shape
            n_state = sig.bind(*args, **kwargs).arguments["b_proj"].value.shape[1]
            self.counters["ssm.scan_bytes"] += 2 * length * channels * n_state * FLOAT64_BYTES
            bwd = out._bwd

            def traced_bwd(g):
                j = self.begin(SCAN_BWD)
                try:
                    bwd(g)
                finally:
                    self.end(j)
            out._bwd = traced_bwd
            return out
        return traced

    def _wrap_checkpoint_io(self, fn, name: str):
        """Span plus the size of the checkpoint file written or read."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def sized(path, *args, **kwargs):
            result = traced(path, *args, **kwargs)
            self.counters["fileio.ckpt_bytes"] += os.path.getsize(path)
            return result
        return sized

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap and rebind; `uninstall` restores every original binding."""
        pkg = {layer: importlib.import_module(f"gesturegen.{layer}") for layer in LAYERS}
        wrappers = {}  # original function -> its wrapper
        for layer, module in pkg.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    if span == SCAN:
                        wrapper = self._wrap_scan(obj)
                    elif span in ("fileio.write_checkpoint", "fileio.read_checkpoint"):
                        wrapper = self._wrap_checkpoint_io(obj, span)
                    else:
                        wrapper = self.wrap(obj, span)
                    wrappers[obj] = wrapper
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gesturegen" or n.startswith("gesturegen."))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(pkg[layer], cls_name)
            self._patch(cls, meth, self.wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write the spans and counters as JSON; a span's id is its index
        in "spans" and its parent is the id of the enclosing span or -1."""
        with open(path, "w") as f:
            json.dump({"columns": ["name", "parent", "start", "end"], "spans": self.spans,
                       "counters": dict(self.counters)}, f)


# -- analysis ------------------------------------------------------------


def span_stats(spans) -> dict:
    """name -> {"calls", "incl", "self", "durations"}.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, parent, start, end) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []})
        s["calls"] += 1
        s["incl"] += end - start
        s["self"] += end - start - child[i]
        s["durations"].append(end - start)
    return stats


def layer_self_times(stats: dict) -> dict:
    """layer -> summed self time of every span in that layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        out[name.split(".", 1)[0]] += s["self"]
    return out


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_layer_metrics(tracer: Tracer, wall_s: float, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric from one traced call of `wall_s` seconds.

    `traced_s` is that call's time and `untraced_s` the median time of
    the same call untraced, both normalised to machine speed.
    """
    stats = span_stats(tracer.spans)
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []}
    out = {}
    for metric, stat, span in SPAN_METRICS:
        out[metric] = stats.get(span, empty)[stat]
    steps = stats.get("denoiser.training_step", empty)["durations"]
    out["denoiser.step_s_p50"] = _percentile(steps, 0.5)
    out["denoiser.step_s_p90"] = _percentile(steps, 0.9)
    scans = stats.get(SCAN, empty)["calls"]
    out["ssm.scan_bytes"] = tracer.counters["ssm.scan_bytes"] / scans if scans else 0.0
    out["fileio.ckpt_bytes"] = tracer.counters["fileio.ckpt_bytes"]
    selfs = layer_self_times(stats)
    for layer, s in selfs.items():
        out[f"{layer}.self_s"] = s
    out["trace.overhead"] = traced_s / untraced_s
    out["trace.unattributed_frac"] = selfs["harness"] / wall_s
    return out

