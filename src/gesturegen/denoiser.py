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
    """LN -> (optional conv) -> (optional self-attn) -> (optional Mamba) -> LN,
    with a residual from the block input when configured."""
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
    y = ad.layer_norm(h, weights.ln2_gamma, weights.ln2_beta)
    return x + y if spec.residual else y


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


def _block_rows(a: np.ndarray) -> list:
    """Slices along axis 0 that cut `np.atleast_1d(a)` into blocks of about `_BLOCK`
    elements (at least one row each; a 0-d array is one block of one element)."""
    a = np.atleast_1d(a)
    rows = max(1, _BLOCK * len(a) // max(1, a.size))
    return [slice(i, i + rows) for i in range(0, len(a), rows)]


def _blocks(*arrays):
    """Views of same-shape arrays, block by block (`_block_rows`)."""
    arrays = [np.atleast_1d(a) for a in arrays]
    for rows in _block_rows(arrays[0]):
        yield [a[rows] for a in arrays]


def _shares(params: dict, processes: int) -> list:
    """The update blocks of `params`, in order, cut into `processes` contiguous shares of
    about equal element count: each cut is the block boundary nearest its target, so a
    share is within one block of the mean. A share lists (name, row slice), with a
    weight's consecutive blocks in one slice."""
    blocks = [(name, rows) for name, p in params.items() for rows in _block_rows(p.value)]
    sizes = [np.atleast_1d(params[name].value)[rows].size for name, rows in blocks]
    bounds = np.cumsum([0] + sizes)
    cuts = [int(np.abs(bounds - bounds[-1] * k / processes).argmin()) for k in range(processes + 1)]
    shares = []
    for lo, hi in zip(cuts, cuts[1:]):
        share = {}
        for name, rows in blocks[lo:hi]:
            share[name] = slice(share.get(name, rows).start, rows.stop)
        shares.append(list(share.items()))
    return shares


def _adamw_update(m, v, x, g, t: int, lr: float, weight_decay: float, scratch):
    """AdamW step t of same-shape arrays, in place, block by block (see `AdamW.step`);
    `scratch` is two buffers of at least one block."""
    b1, b2 = 0.9, 0.999
    c1, c2 = 1.0 - b1, 1.0 - b2
    b1c = 1.0 - b1 ** t
    b2c = 1.0 - b2 ** t
    for m, v, x, g in _blocks(m, v, x, g):
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
    updates the moments and the values in place, block by block, through two
    scratch buffers of one block; they live only during the step, so they add
    nothing to a training step's peak memory. Given a `ClipPool`, the step splits
    its blocks over the pool's processes (`ClipPool.shares`)."""

    def __init__(self, params: dict, lr: float, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        # np.zeros leaves a large array's pages untouched until the first step writes
        # them, so moving the moments into a pool's shared memory touches one copy
        self.m = {k: np.zeros(p.value.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.value.shape) for k, p in params.items()}
        self._size = max((x.size for p in params.values() for (x,) in _blocks(p.value)), default=0)
        self._all = [(name, slice(None)) for name in params]  # the serial step's one share

    def step(self, pool: Optional[ClipPool] = None):
        """m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        u = (m/b1c) / (sqrt(v/b2c) + eps);  p -= lr*(u + wd*p).
        Each operation writes into an existing buffer, in this order, so the
        result equals these expressions bit for bit; blocks keep the buffers
        in cache. Parameters without a gradient are skipped.

        With a `pool` of W > 1 processes, process w updates share w of the blocks:
        each worker gets its share of the gradients through its slot, this process
        updates share 0 from `.grad` and then waits for every worker. The update is
        elementwise, so the bits do not depend on W. An error in a worker is raised
        here, and closes the pool."""
        self.t += 1
        grads = {name: p.grad for name, p in self.params.items() if p.grad is not None}
        if not (pool and pool.workers):
            self._update(self._all, grads, self.t)
            return
        try:
            for w in range(1, len(pool.shares)):
                pool.send_update(w, self.t, grads)
            self._update(pool.shares[0], grads, self.t)
            for w in range(1, len(pool.shares)):
                pool.receive_update(w, self.t)
        except BaseException:
            pool.close()  # its workers may be inside their shares of this step
            raise

    def _update(self, share: list, grads: dict, t: int):
        """Step t of the rows that `share` names, for the weights in `grads`."""
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
    params = optimizer.params
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
                for p in params.values():
                    p.grad = None
                losses = _clip_backward(model, *job)
                reached = [name for name, p in params.items() if p.grad is not None]
                for name in reached:
                    np.copyto(slot[name], params[name].grad)
                answer = losses, reached
        except Exception as e:  # re-raised by the master when it reads this answer
            answer = e
        conn.send(answer)


class ClipPool:
    """The processes that run the clips of `training_step` and the blocks of
    `AdamW.step`: this one and `processes - 1` workers forked here, with clip i on
    process i mod `processes`.

    With more than one process, the optimizer's weights and its moments `m` and `v` move
    into shared memory before the fork; a weight or moment given a new array afterwards
    is not seen by the workers, and neither is a new `lr` or `weight_decay`. Each worker
    has one shared slot, shaped like the weights: it returns a clip's gradients there,
    and once the step's clips are folded, it gets its share of the summed gradient
    there. `shares` cuts the optimizer's update blocks (`_blocks`), in `params` order,
    into one contiguous share per process, of about equal element count and within one
    block of each other (`_shares`); process w updates share w.

    OpenBLAS runs one thread in every process while the pool is open, whatever the
    count: threaded BLAS in each process would oversubscribe the cores (2.3x slower at
    300 frames on 2 cores), and OpenBLAS at 2 threads rounds some products differently
    from 1 thread, so the bytes would depend on W and on the machine. Use as a context
    manager, or call `close`, which ends and joins every worker and gives OpenBLAS back
    its thread count; a step that raises closes the pool, and a closed pool runs every
    clip and every AdamW block in this process."""

    def __init__(self, model, processes: int, optimizer: AdamW):
        self.workers = []  # (process, pipe end, gradient slot by weight name)
        self.shares = []  # of the update blocks, by process
        self._blas = [(get(), put) for get, put in _openblas_threads()]  # count before, setter
        for _, put in self._blas:
            put(1)  # before the fork, so that the workers inherit it
        if processes < 2:
            return
        params = optimizer.params
        values = {name: p.value for name, p in params.items()}
        for arrays in (values, optimizer.m, optimizer.v):
            for name, shared in _shared_arrays(arrays).items():
                shared[...] = arrays[name]
                arrays[name] = shared
        for name, p in params.items():
            p.value = values[name]
        self.shares = _shares(params, processes)
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

    def send(self, w: int, job: tuple):
        """Give worker w a clip: the arguments of `_clip_backward` after the model."""
        self.workers[w - 1][1].send(("clip", job))

    def receive(self, w: int, index: int):
        """Worker w's answer for clip `index`: (losses, {name: slot view})."""
        losses, reached = self._answer(w, f"clip {index}")
        slot = self.workers[w - 1][2]
        return losses, {name: slot[name] for name in reached}

    def send_update(self, w: int, t: int, grads: dict):
        """Copy worker w's share of `grads` into its slot and have it take AdamW step t."""
        _, conn, slot = self.workers[w - 1]
        for name, rows in self.shares[w]:
            if name in grads:
                np.copyto(np.atleast_1d(slot[name])[rows], np.atleast_1d(grads[name])[rows])
        conn.send(("adamw", (t, list(grads))))

    def receive_update(self, w: int, t: int):
        """Wait until worker w has updated its share in AdamW step t."""
        self._answer(w, f"its share of AdamW step {t}")

    def _answer(self, w: int, what: str):
        """Worker w's next answer. Re-raises the exception it sent; a worker that exited
        raises ChildProcessError."""
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
        self.workers, self.shares, self._blas = [], [], []

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
    whatever the batch. Each clip's draws are taken just before it starts
    here or is sent to a worker, in clip order, so the RNG stream does not
    depend on where the clips run, and at most W + 1 clips' draws are
    alive at once. With a `pool` of W processes, clip i runs on process
    i mod W, this one included, and the pool's processes share the AdamW
    step.
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
    # a generator: each clip is drawn when `job` first needs it, in clip order
    jobs = ((ex, schedule, _draw_clip(rng, ex, schedule.steps), huber_delta, n, i)
            for i, ex in enumerate(batch))
    drawn = {}  # the clips drawn but not yet started, by index

    def job(k):
        while k not in drawn:
            clip = next(jobs)
            drawn[clip[-1]] = clip
        return drawn.pop(k)

    procs = 1 + len(pool.workers) if pool else 1
    losses, grads = [], {}  # (l_g, l_s, l_e) per clip; the gradient sums so far
    try:
        for w in range(1, min(procs, n)):
            pool.send(w, job(w))
        for i in range(n):
            w = i % procs
            if w == 0:
                for p in params.values():
                    p.grad = None
                losses.append(_clip_backward(model, *job(i)))
                clip_grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            else:
                clip_losses, clip_grads = pool.receive(w, i)
                losses.append(clip_losses)
            for name, g in clip_grads.items():
                if name in grads:  # out of place: two weights may hold one gradient array
                    grads[name] = grads[name] + g
                else:  # a worker's slot is refilled with its next clip
                    grads[name] = g.copy() if w else g
            if w and i + procs < n:
                pool.send(w, job(i + procs))  # the worker's credit to refill its slot
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
