"""Denoising network: stacked attention+Mamba blocks with an output
projection, the variant factory for ablation configs, the full model
built from one `fusion.ModelSpec`, and the training step (Huber gesture
loss + L1 style/emotion alignment, AdamW updates).
"""
from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import operator
import os
import signal
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from . import ssm
from .autodiff import Tensor
from .diffusion import DiffusionSchedule, q_sample
from .errors import NumericalError, ShapeError


@dataclass
class MambaAttnBlockWeights(ad.Params):
    ln1_gamma: Tensor
    ln1_beta: Tensor
    w_q: Optional[Tensor]
    w_k: Optional[Tensor]
    w_v: Optional[Tensor]
    w_o: Optional[Tensor]
    ln2_gamma: Tensor
    ln2_beta: Tensor
    conv_kernel: Optional[Tensor] = None
    conv_bias: Optional[Tensor] = None
    mamba: Optional[ssm.MambaBlockWeights] = None  # last, so its keys follow the block's own


@dataclass
class DenoiserWeights(ad.Params):
    spec: fu.ModelSpec
    blocks: list
    proj_w: Tensor
    proj_b: Tensor


_INIT_STD = 0.02  # of every Gaussian weight init in the denoiser


def _init_block(spec: fu.ModelSpec, rng: np.random.Generator) -> MambaAttnBlockWeights:
    d = spec.d
    t = lambda shape: ad.tensor(rng.normal(0.0, _INIT_STD, shape))
    attn = spec.use_attention
    return MambaAttnBlockWeights(  # the keyword order is the RNG draw order
        ln1_gamma=ad.tensor(np.ones(d)), ln1_beta=ad.tensor(np.zeros(d)),
        w_q=t((d, d)) if attn else None,
        w_k=t((d, d)) if attn else None,
        w_v=t((d, d)) if attn else None,
        w_o=t((d, d)) if attn else None,
        mamba=ssm.init_mamba_block(d, rng, spec.n_state, spec.expand,
                                   spec.mamba_conv_width, _INIT_STD)
        if spec.use_mamba else None,
        ln2_gamma=ad.tensor(np.ones(d)), ln2_beta=ad.tensor(np.zeros(d)),
        conv_kernel=t((spec.block_conv_width, d)) if spec.use_conv else None,
        conv_bias=ad.tensor(np.zeros(d)) if spec.use_conv else None,
    )


def build_variant(spec: fu.ModelSpec, seed: int) -> DenoiserWeights:
    """Seeded Gaussian init (std `_INIT_STD`), layer norms at identity."""
    rng = np.random.default_rng(seed)
    blocks = [_init_block(spec, rng) for _ in range(spec.layers)]
    proj_w = ad.tensor(rng.normal(0.0, _INIT_STD, (spec.d, spec.gesture_dim)))
    proj_b = ad.tensor(np.zeros(spec.gesture_dim))
    return DenoiserWeights(spec, blocks, proj_w, proj_b)


def mambattn_block(weights: MambaAttnBlockWeights, x: Tensor, spec: fu.ModelSpec) -> Tensor:
    """LN -> (optional conv) -> (optional self-attn) -> (optional Mamba) -> LN, plus x."""
    if x.value.shape[1] != spec.d:
        raise ShapeError(f"block input width {x.value.shape[1]} != configured d {spec.d}")
    h = ad.layer_norm(x, weights.ln1_gamma, weights.ln1_beta)
    if spec.use_conv:
        h = ad.causal_depthwise_conv(h, weights.conv_kernel, weights.conv_bias)
    if spec.use_attention:
        attended = ad.scaled_dot_attention(
            ad.matmul(h, weights.w_q), ad.matmul(h, weights.w_k), ad.matmul(h, weights.w_v))
        h = ad.matmul(attended, weights.w_o)
    if spec.use_mamba:
        h = ssm.mamba_block_forward(weights.mamba, h)
    return x + ad.layer_norm(h, weights.ln2_gamma, weights.ln2_beta)


def denoiser_forward(weights: DenoiserWeights, f_fuse: Tensor) -> Tensor:
    """Stacked blocks then linear projection to the gesture width."""
    h = f_fuse
    for block in weights.blocks:
        h = mambattn_block(block, h, weights.spec)
    return ad.matmul(h, weights.proj_w) + weights.proj_b


# -- full model ---------------------------------------------------------


@dataclass
class GestureModel(ad.Params):
    fusion: fu.FusionWeights
    denoiser: DenoiserWeights


def build_model(spec: fu.ModelSpec, seed: int) -> GestureModel:
    rng = np.random.default_rng(seed)
    fusion = fu.init_fusion(spec, rng)
    denoiser = build_variant(spec, int(rng.integers(2**31)))
    return GestureModel(fusion, denoiser)


def predict_x0(model: GestureModel, audio: np.ndarray, text: np.ndarray,
               style_id: int, emotion_id: int, x_t: np.ndarray, t: int) -> np.ndarray:
    """Inference path: encode conditions, fuse, denoise, all under `ad.no_grad`. No masking."""
    with ad.no_grad():
        bundle = fu.encode_conditions(model.fusion, audio, text, style_id, emotion_id, x_t, t)
        out = fu.fusion_forward(model.fusion, bundle)
        return denoiser_forward(model.denoiser, out.f_fuse).value


# -- optimizer ----------------------------------------------------------


_BLOCK = 1 << 15  # elements per AdamW update block: its six arrays (1.5 MB) fit a core's L2 cache


def _blocks(params: dict) -> list:
    """The AdamW update blocks of `params`, in order: (name, rows) for each, where `rows`
    slices `np.atleast_1d` of the weight along axis 0 into blocks of about `_BLOCK`
    elements (at least one row each; a 0-d weight is one block of one element)."""
    blocks = []
    for name, p in params.items():
        a = np.atleast_1d(p.value)
        rows = max(1, _BLOCK * len(a) // max(1, a.size))
        blocks += [(name, slice(i, i + rows)) for i in range(0, len(a), rows)]
    return blocks


def _shares(params: dict, processes: int) -> list:
    """`_blocks(params)` cut into `processes` contiguous shares of about equal element
    count: each cut is the block boundary nearest its target, so a share is within one
    block of the mean."""
    blocks = _blocks(params)
    sizes = [np.atleast_1d(params[name].value)[rows].size for name, rows in blocks]
    bounds = np.cumsum([0] + sizes)
    cuts = [int(np.abs(bounds - bounds[-1] * k / processes).argmin()) for k in range(processes)]
    return [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:] + [len(blocks)])]


def _adamw_update(m, v, x, g, t: int, lr: float, weight_decay: float, scratch):
    """AdamW step t of one block of same-shape arrays, in place (see `AdamW.step`);
    `scratch` is two buffers of at least one block."""
    b1, b2 = 0.9, 0.999
    c1, c2 = 1.0 - b1, 1.0 - b2
    b1c = 1.0 - b1 ** t
    b2c = 1.0 - b2 ** t
    s, u = (buf[:x.size].reshape(x.shape) for buf in scratch)
    np.multiply(m, b1, out=m)
    m += np.multiply(c1, g, out=s)
    np.multiply(v, b2, out=v)
    v += np.multiply(np.multiply(c2, g, out=s), g, out=s)
    np.divide(m, b1c, out=u)
    np.sqrt(np.divide(v, b2c, out=s), out=s)
    s += 1e-8
    u /= s
    np.multiply(weight_decay, x, out=s)
    s += u
    s *= lr
    x -= s


class AdamW:
    """Decoupled weight-decay Adam (Loshchilov & Hutter, arXiv 1711.05101)
    over a named parameter dict, with betas (0.9, 0.999) and eps 1e-8. `step`
    updates the moments and the values in place, block by block (`_blocks`),
    through two scratch buffers of one block; they live only during the step,
    so they add nothing to a training step's peak memory."""

    def __init__(self, params: dict, lr: float, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        # np.zeros leaves a large array's pages untouched until the first step writes
        # them, so moving the moments into a pool's shared memory touches one copy
        self.m = {k: np.zeros(p.value.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.value.shape) for k, p in params.items()}
        self.blocks = _blocks(params)  # the serial step's one share
        self._size = max((np.atleast_1d(params[name].value)[rows].size
                          for name, rows in self.blocks), default=0)

    def step(self, pool: Optional[ClipPool] = None):
        """m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        u = (m/b1c) / (sqrt(v/b2c) + eps);  p -= lr*(u + wd*p).
        Each operation writes into an existing buffer, in this order, so the
        result equals these expressions bit for bit; blocks keep the buffers
        in cache. Parameters without a gradient are skipped.

        Given a `pool` of W processes, process w updates share w of the blocks
        (`ClipPool.shares`): each worker gets its share of the gradients through its
        slot, this process updates share 0 from `.grad` and then waits for every
        worker. A pool of one is the serial step over every block. The update is
        elementwise, so the bits do not depend on W. An error here or in a worker is
        raised here, and closes the pool."""
        self.t += 1
        grads = {name: p.grad for name, p in self.params.items() if p.grad is not None}
        shares = pool.shares if pool else [self.blocks]
        try:
            for w in range(1, len(shares)):
                slot = pool.workers[w - 1][2]
                for name, rows in shares[w]:
                    if name in grads:
                        np.copyto(np.atleast_1d(slot[name])[rows], np.atleast_1d(grads[name])[rows])
                pool.send(w, "adamw", (self.t, list(grads)))
            self._update(shares[0], grads, self.t)
            for w in range(1, len(shares)):
                pool.receive(w, f"its share of AdamW step {self.t}")
        except BaseException:
            if pool:
                pool.close()  # its workers may be inside their shares of this step
            raise

    def _update(self, share: list, grads: dict, t: int):
        """Step t of the blocks in `share`, for the weights in `grads`."""
        scratch = (np.empty(self._size), np.empty(self._size))
        for name, rows in share:
            if name in grads:
                arrays = (self.m[name], self.v[name], self.params[name].value, grads[name])
                _adamw_update(*(np.atleast_1d(a)[rows] for a in arrays),
                              t, self.lr, self.weight_decay, scratch)

    def state_arrays(self) -> dict:
        """`opt.step` and the live moment arrays, not copies: the next `step`
        overwrites them, so copy what must outlive it."""
        out = {"opt.step": np.array([float(self.t)])}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict):
        """Copy the moments into the existing arrays, so that `step` never writes to the
        caller's arrays and a pool's workers see the loaded values."""
        self.t = int(arrays["opt.step"][0])
        for name in self.params:
            np.copyto(self.m[name], arrays[f"opt.m.{name}"])
            np.copyto(self.v[name], arrays[f"opt.v.{name}"])


# -- training -----------------------------------------------------------


@dataclass
class TrainExample:
    """One clip: clean gesture features plus raw conditioning inputs."""

    x0: np.ndarray       # F x gesture_dim
    audio: np.ndarray    # F x d_audio
    text: np.ndarray     # F x d_text
    style_id: int
    emotion_id: int


@dataclass
class ClipDraws:
    """One clip's random draws, in the order a training step takes them from its RNG."""

    t: int              # diffusion step
    eps: np.ndarray     # noise, shaped like the clip's x0
    mask: np.ndarray    # the two uniforms of `fu.mask_conditions`


def _draw_clip(rng: np.random.Generator, ex: TrainExample, steps: int) -> ClipDraws:
    return ClipDraws(int(rng.integers(steps)), rng.standard_normal(ex.x0.shape), rng.random(2))


def _clip_backward(model: GestureModel, ex: TrainExample, schedule: DiffusionSchedule,
                   draws: ClipDraws, huber_delta: float, n: int, index: int):
    """Forward one clip and backpropagate its loss l_g + l_s + l_e, over n, into the
    weights' `.grad`; a non-finite loss raises first. Returns (l_g, l_s, l_e) as
    floats, so the clip's graph is freed on return."""
    x_t = q_sample(ex.x0, draws.t, draws.eps, schedule)
    bundle = fu.encode_conditions(model.fusion, ex.audio, ex.text,
                                  ex.style_id, ex.emotion_id, x_t, draws.t)
    target_s, target_e = bundle.f_s, bundle.f_e
    bundle.f_s, bundle.f_e = fu.mask_conditions(bundle.f_s, bundle.f_e,
                                                model.fusion.spec.mask_prob, draws.mask)
    out = fu.fusion_forward(model.fusion, bundle)
    x0_hat = denoiser_forward(model.denoiser, out.f_fuse)
    l_g = ad.huber_loss(x0_hat - ad.tensor(ex.x0), huber_delta)
    if out.disentangled is not None:
        l_s, l_e = fu.style_emotion_losses(out.disentangled, target_s, target_e)
    else:
        l_s = l_e = ad.tensor(0.0)
    loss = l_g + l_s + l_e
    if not np.isfinite(loss.value):
        raise NumericalError(f"non-finite training loss in clip {index}: {loss.value}")
    (loss * (1.0 / n)).backward()
    return float(l_g.value), float(l_s.value), float(l_e.value)


def _shared_arrays(arrays: dict) -> dict:
    """Zeroed float64 arrays shaped like `arrays`, by name, in one anonymous shared
    mapping: a process forked later writes and reads the same memory. Each array starts
    on a 64-byte boundary."""
    offsets, end = {}, 0
    for name, a in arrays.items():
        offsets[name] = end
        end += -(-a.nbytes // 64) * 64
    buf = mmap.mmap(-1, max(end, 1))
    return {name: np.frombuffer(buf, np.float64, a.size, offsets[name]).reshape(a.shape)
            for name, a in arrays.items()}


def usable_cores() -> int:
    """The cores this process may run on; 1 without an affinity call (macOS, Windows)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas_threads() -> list:
    """(get, set) of the thread count of each OpenBLAS mapped into this process, as
    numpy's and scipy's wheels name them; none off Linux or under another BLAS."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a path that no longer loads, such as "(deleted)"
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get and put:
                get.restype = ctypes.c_int
                found.append((get, put))
                break
    return found


def _run_clip(model, params: dict, job: tuple):
    """Run one clip, `job` being the arguments of `_clip_backward` after the model, from
    cleared gradients. Returns its losses and the gradients of the weights it reached,
    by name."""
    for p in params.values():
        p.grad = None
    losses = _clip_backward(model, *job)
    return losses, {name: p.grad for name, p in params.items() if p.grad is not None}


def _work(model, optimizer: AdamW, share: list, conn, slot: dict):
    """A worker's loop. A message is ("clip", the arguments of `_clip_backward` after the
    model) or ("adamw", (t, names)). For a clip, the worker runs it, copies the gradients
    into `slot` and answers with the losses and the names it reached; the master sends
    the next clip only after folding the slot, so the slot is free. For AdamW step t, it
    updates its `share` of the weights named, from the gradients the master put in
    `slot`, and answers None. An exception raised instead is the answer. Ends when the
    master closes the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the master handles Ctrl-C and ends the pool
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # so that `ClipPool.close` ends it
    while True:
        try:
            kind, job = conn.recv()
        except EOFError:
            return
        try:
            if kind == "adamw":
                t, names = job
                optimizer._update(share, {name: slot[name] for name in names}, t)
                answer = None
            else:
                losses, grads = _run_clip(model, optimizer.params, job)
                for name, g in grads.items():
                    np.copyto(slot[name], g)
                answer = losses, list(grads)
        except Exception as e:  # re-raised by the master when it reads this answer
            answer = e
        conn.send(answer)


class ClipPool:
    """The processes that run the clips of `training_step` and the blocks of
    `AdamW.step`: this one and `processes - 1` workers forked here, with clip i on
    process i mod `processes`. `shares` cuts the optimizer's update blocks (`_blocks`),
    in `params` order, into one contiguous share per process, of about equal element
    count and within one block of each other (`_shares`); process w updates share w.
    A pool of one process has one share of every block, and forks nothing.

    With more than one process, the optimizer's weights and its moments `m` and `v` move
    into shared memory before the fork; a weight or moment given a new array afterwards
    is not seen by the workers, and neither is a new `lr` or `weight_decay`. Each worker
    has one shared slot, shaped like the weights: it returns a clip's gradients there,
    and once the step's clips are folded, it gets its share of the summed gradient
    there.

    OpenBLAS runs one thread in every process while the pool is open, whatever the
    count: threaded BLAS in each process would oversubscribe the cores (2.3x slower at
    300 frames on 2 cores), and OpenBLAS at 2 threads rounds some products differently
    from 1 thread, so the bytes would depend on W and on the machine. Use as a context
    manager, or call `close`, which ends and joins every worker and gives OpenBLAS back
    its thread count; a step that raises closes the pool."""

    def __init__(self, model, processes: int, optimizer: AdamW):
        self.workers = []  # (process, pipe end, gradient slot by weight name)
        params = optimizer.params
        self.shares = _shares(params, processes)  # of the update blocks, by process
        self._blas = [(get(), put) for get, put in _openblas_threads()]  # count before, setter
        for _, put in self._blas:
            put(1)  # before the fork, so that the workers inherit it
        if processes < 2:
            return
        values = {name: p.value for name, p in params.items()}
        for arrays in (values, optimizer.m, optimizer.v):
            for name, shared in _shared_arrays(arrays).items():
                shared[...] = arrays[name]
                arrays[name] = shared
        for name, p in params.items():
            p.value = values[name]
        ctx = multiprocessing.get_context("fork")
        try:
            for share in self.shares[1:]:
                slot = _shared_arrays(values)
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_work, args=(model, optimizer, share, there, slot),
                                   daemon=True)
                proc.start()
                there.close()  # so that the worker's exit reads as EOF here
                self.workers.append((proc, here, slot))
        except BaseException:
            self.close()
            raise

    def send(self, w: int, kind: str, job: tuple):
        """Give worker w a message of `kind` "clip" or "adamw" (see `_work`)."""
        self.workers[w - 1][1].send((kind, job))

    def receive(self, w: int, what: str):
        """Worker w's answer to its last message, which asked for `what`. Re-raises the
        exception it sent; a worker that exited raises ChildProcessError."""
        proc, conn, _ = self.workers[w - 1]
        try:
            answer = conn.recv()
        except EOFError:
            proc.join()
            raise ChildProcessError(f"training worker {proc.pid} exited with code {proc.exitcode} "
                                    f"before it returned {what}") from None
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def close(self):
        for proc, _, _ in self.workers:
            proc.terminate()
        for proc, conn, _ in self.workers:
            proc.join()
            conn.close()
        for threads, put in self._blas:
            put(threads)
        self.workers, self._blas = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def training_step(model: GestureModel, optimizer: AdamW, batch: list,
                  schedule: DiffusionSchedule, rng: np.random.Generator,
                  huber_delta: float = 1.0, pool: Optional[ClipPool] = None) -> dict:
    """One stochastic step over a batch of clips.

    Per clip: draw t and noise, form x_t, encode + mask conditions, fuse,
    predict the clean sample, score Huber gesture loss plus L1
    style/emotion alignment, and backpropagate that loss over the batch
    size before the next clip starts, so memory holds one clip's graph
    whatever the batch. With a `pool` of W processes, clip i runs on
    process i mod W, this one included, and the pool's processes share the
    AdamW step; without one, W is 1. The draws are taken in clip order, so
    the RNG stream does not depend on W: clips 0..W-1 before any clip
    starts, and clip i + W when clip i's turn in the fold ends, so at most
    W + 1 clips' draws are alive at once.
    Gradients are accumulated clip by clip, in clip order, each clip as
    soon as its turn comes; as each weight gets one contribution per clip,
    the sums equal one backward over the whole batch bit for bit, whatever
    W. A weight that no clip reaches keeps `grad` None. A non-finite clip
    loss raises `NumericalError` for the lowest such clip before any weight
    or moment changes. Returns the component losses, each the mean over the
    batch.
    """
    if not batch:
        raise ShapeError("empty training batch")
    n = len(batch)
    params = optimizer.params
    procs = len(pool.shares) if pool else 1
    mine = None  # the next clip this process runs
    losses, grads = [], {}  # (l_g, l_s, l_e) per clip; the gradient sums so far
    try:
        for i in range(-procs, n):  # i < 0 only draws: clips 0..W-1 go out before any runs
            w = i % procs
            if i >= 0:
                if w:
                    clip_losses, reached = pool.receive(w, f"clip {i}")
                    clip_grads = {name: pool.workers[w - 1][2][name] for name in reached}
                else:
                    clip_losses, clip_grads = _run_clip(model, params, mine)
                losses.append(clip_losses)
                for name, g in clip_grads.items():
                    if name in grads:  # out of place: two weights may hold one gradient array
                        grads[name] = grads[name] + g
                    else:  # a worker's slot is refilled with its next clip
                        grads[name] = g.copy() if w else g
            k = i + procs  # clip i's turn has ended: draw clip i + W for process w
            if k < n:
                job = (batch[k], schedule, _draw_clip(rng, batch[k], schedule.steps),
                       huber_delta, n, k)
                if w:
                    pool.send(w, "clip", job)
                else:
                    mine = job
    except BaseException:
        if pool:
            pool.close()  # its workers may be inside a clip of this step
        raise
    for name, p in params.items():
        p.grad = grads.get(name)
    optimizer.step(pool)
    # left folds, in clip order, as the one-graph loss formed them
    l_g, l_s, l_e = (reduce(operator.add, column, 0.0) / n for column in zip(*losses))
    total = reduce(operator.add, [g + s + e for g, s, e in losses]) * (1.0 / n)
    return {"l_total": total, "l_g": l_g, "l_s": l_s, "l_e": l_e}
