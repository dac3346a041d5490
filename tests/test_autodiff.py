"""Autodiff core: forward oracles and finite-difference gradient checks."""
import tracemalloc

import numpy as np
import pytest

from gesturegen import autodiff as ad, denoiser as dn, fusion as fu, ssm
from gesturegen.diffusion import build_schedule
from gesturegen.errors import NumericalError, ShapeError


def test_matmul_against_triple_loop(rng):
    a = rng.normal(0, 1, (4, 6))
    b = rng.normal(0, 1, (6, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(6):
                want[i, j] += a[i, k] * b[k, j]
    got = ad.matmul(ad.tensor(a), ad.tensor(b)).value
    assert np.allclose(got, want, atol=1e-12)


def test_matmul_shape_error(rng):
    with pytest.raises(ShapeError):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))))


def test_backward_resets_between_calls(rng):
    x = ad.tensor(rng.normal(0, 1, (3, 3)))
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)  # no accumulation across calls


def _backward_with_every_buffer_up_front(root):
    """The oracle sweep: a zero gradient for every reachable node before any closure
    runs, all kept until the sweep ends."""
    order = root._topo()
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._bwd is not None:
            node._bwd(node.grad)


def test_clip_backward_keeps_leaf_gradient_bits_and_drops_interior_ones(monkeypatch):
    spec = fu.ModelSpec(layers=1, d=8, gesture_dim=5, n_state=4, expand=2, use_conv=True,
                        mamba_conv_width=2, block_conv_width=2, d_audio=4, d_text=3,
                        n_styles=2, window=4, mode=fu.SEAD, mask_prob=0.1)
    model = dn.build_model(spec, seed=0)
    data = np.random.default_rng(1)
    ex = dn.TrainExample(x0=data.normal(0, 1, (6, 5)), audio=data.normal(0, 1, (6, 4)),
                         text=data.normal(0, 1, (6, 3)), style_id=1, emotion_id=3)
    roots, backward = [], ad.Tensor.backward

    def recording_backward(self):
        roots.append(self)
        backward(self)

    monkeypatch.setattr(ad.Tensor, "backward", recording_backward)
    dn._clip_backward(model, ex, build_schedule(10, 1e-4, 0.2), np.random.default_rng(2),
                      1.0, 1, 0)
    (root,) = roots
    order = root._topo()
    leaves = [node for node in order if node._bwd is None]
    interior = [node for node in order if node._bwd is not None]
    assert root._bwd is not None and len(interior) > 100
    assert all(node.grad is None for node in interior)
    live = [node.grad.tobytes() for node in leaves]
    _backward_with_every_buffer_up_front(root)
    assert [node.grad.tobytes() for node in leaves] == live


def _leaf_grads_against_oracle(root):
    """(live, oracle): each leaf's gradient bytes after `backward`, then after the
    oracle sweep over the same graph. `+ 0.0` gives an exact zero the sign that the
    oracle's zero buffer gives it, the one difference that `backward` allows."""
    leaves = [node for node in root._topo() if node._bwd is None]
    root.backward()
    live = [(node.grad + 0.0).tobytes() for node in leaves]
    _backward_with_every_buffer_up_front(root)
    return live, [node.grad.tobytes() for node in leaves]


# Each case is two scalar terms. In one of the two orders the sweep runs, a node's
# first gradient is an array that another node also holds when a second
# contribution arrives, so an in-place add or partial write would change both.


def _leaves(rng, *shapes):
    return [ad.tensor(rng.normal(0, 1, shape)) for shape in shapes]


def _used_twice(rng):
    x, y = _leaves(rng, (4, 3), (4, 3))
    return [(((x + x) + y) * rng.normal(0, 1, (4, 3))).sum(), (x * x).sum()]


def _two_leaves_one_array(rng):
    w1, w2 = _leaves(rng, (4, 3), (4, 3))
    return [((w1 + w2) * rng.normal(0, 1, (4, 3))).sum(), (w1 * w1).sum()]


def _both_halves_of_a_split(rng):
    x, w, y = _leaves(rng, (5, 3), (3, 8), (5, 8))
    xz = ad.matmul(x, w)
    return [(ad.silu(xz[:, :4]) * ad.silu(xz[:, 4:])).sum(),
            ((xz + y) * rng.normal(0, 1, (5, 8))).sum()]


def _conv_with_a_second_consumer(rng):
    x, w, kernel, bias = _leaves(rng, (6, 3), (6, 3), (2, 3), (3,))
    return [(ad.causal_depthwise_conv(x, kernel, bias) * rng.normal(0, 1, (6, 3))).sum(),
            ((x + w) * rng.normal(0, 1, (6, 3))).sum()]


def _one_row_matmul_after_dead_relu(rng):
    z, w1, w2 = _leaves(rng, (1, 4), (4, 16), (16, 9))
    h = ad.relu(ad.matmul(z, w1))
    assert 0 < (h.value == 0.0).sum() < h.value.size  # some units are dead, some live
    return [ad.huber_loss(ad.matmul(h, w2) - rng.normal(0, 1, (1, 9))), (w2 * w2).sum()]


@pytest.mark.parametrize("first", [0, 1], ids=["in-order", "swapped"])
@pytest.mark.parametrize("build", [_used_twice, _two_leaves_one_array, _both_halves_of_a_split,
                                   _conv_with_a_second_consumer, _one_row_matmul_after_dead_relu])
def test_leaf_gradients_equal_the_zero_buffer_oracle(build, first, rng):
    terms = build(rng)
    live, oracle = _leaf_grads_against_oracle(terms[first] + terms[1 - first])
    assert live == oracle


def test_one_row_matmul_gradient_is_the_outer_product_of_a_dgemm(rng):
    a, g = rng.normal(0, 1, (1, 64)), rng.normal(0, 1, (1, 4500))
    a[0, ::3] = 0.0
    outer, dgemm = a.T * g, a.T @ g
    assert np.array_equal(outer, dgemm)  # -0.0 == 0.0: equal values
    nonzero = dgemm != 0.0
    assert outer[nonzero].tobytes() == dgemm[nonzero].tobytes()


def test_training_step_sums_clip_gradients_out_of_place(monkeypatch):
    """Two weights that receive one gradient array per clip: the step must still give
    each one the sum of its own clip gradients."""
    w1, w2 = ad.tensor(np.zeros((2, 3))), ad.tensor(np.ones((2, 3)))
    batch = [np.random.default_rng(i).normal(0, 1, (2, 3)) for i in range(2)]

    def clip_backward(model, ex, schedule, rng, huber_delta, n, index):
        (((w1 + w2) * ex).sum() * (1.0 / n)).backward()
        assert w1.grad is w2.grad
        return 0.0, 0.0, 0.0

    monkeypatch.setattr(dn, "_clip_backward", clip_backward)
    opt = dn.AdamW({"w1": w1, "w2": w2}, lr=1e-3)
    dn.training_step(None, opt, batch, build_schedule(10, 1e-4, 0.2), np.random.default_rng(0))
    want = (0.5 * batch[0] + 0.5 * batch[1]).tobytes()
    assert w1.grad.tobytes() == want and w2.grad.tobytes() == want


def test_backward_of_a_chain_makes_no_zero_buffer(rng, monkeypatch):
    x = ad.tensor(rng.normal(0, 1, (8, 8)))
    y = x
    for _ in range(64):
        y = ad.silu(y)
    calls, zeros_like = [], np.zeros_like
    monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(1) or zeros_like(*a, **k))
    y.sum().backward()
    assert calls == [] and x.grad.shape == (8, 8)


def test_backward_peak_memory_does_not_grow_with_the_graph(rng):
    """A chain of 64 elementwise ops: each interior gradient is freed once its closure
    has run, so the sweep holds a few arrays at a time (5 here), not one per node."""
    x = ad.tensor(rng.normal(0, 1, (128, 128)))
    y = x
    for _ in range(64):
        y = ad.silu(y)
    loss = y.sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.value.nbytes


def test_broadcast_add_gradient(rng):
    x = ad.tensor(rng.normal(0, 1, (5, 4)))
    b = ad.tensor(rng.normal(0, 1, 4))
    (x + b).sum().backward()
    assert np.allclose(b.grad, np.full(4, 5.0))
    assert np.allclose(x.grad, np.ones((5, 4)))


def test_layer_norm_statistics(rng):
    x = rng.normal(3.0, 2.0, (6, 16))
    out = ad.layer_norm(ad.tensor(x), ad.tensor(np.ones(16)), ad.tensor(np.zeros(16)))
    assert np.allclose(out.value.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.value.std(axis=-1), 1.0, atol=1e-3)  # eps-limited


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(0, 5, (4, 7))
    s = ad.softmax(ad.tensor(x)).value
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    # shift invariance (numerical stability)
    s2 = ad.softmax(ad.tensor(x + 1000.0)).value
    assert np.allclose(s, s2, atol=1e-12)


def test_attention_against_brute_force(rng):
    q = rng.normal(0, 1, (5, 4))
    k = rng.normal(0, 1, (6, 4))
    v = rng.normal(0, 1, (6, 3))
    logits = q @ k.T / np.sqrt(4)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    want = w @ v
    got = ad.scaled_dot_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v)).value
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("q_shape,k_shape,v_shape", [
    ((5, 4), (6, 3), (6, 3)),  # query/key widths differ
    ((5, 4), (6, 4), (5, 3)),  # key/value lengths differ
    ((5, 4), (0, 4), (0, 3)),  # no keys
])
def test_attention_shape_errors(q_shape, k_shape, v_shape):
    with pytest.raises(ShapeError):
        ad.scaled_dot_attention(np.ones(q_shape), np.ones(k_shape), np.ones(v_shape))


def test_causal_conv_values_and_causality(rng):
    x = rng.normal(0, 1, (8, 2))
    kern = rng.normal(0, 1, (3, 2))
    bias = rng.normal(0, 1, 2)
    y = ad.causal_depthwise_conv(ad.tensor(x), ad.tensor(kern), ad.tensor(bias)).value
    for t in range(8):
        for c in range(2):
            want = bias[c]
            for j in range(3):
                if t - j >= 0:
                    want += kern[j, c] * x[t - j, c]
            assert abs(y[t, c] - want) < 1e-12
    # perturbing a later frame never changes earlier outputs
    x2 = x.copy()
    x2[5] += 10.0
    y2 = ad.causal_depthwise_conv(ad.tensor(x2), ad.tensor(kern), ad.tensor(bias)).value
    assert np.allclose(y[:5], y2[:5], atol=1e-12)


def test_huber_loss_values():
    # |d| <= delta: quadratic; beyond: linear
    assert abs(ad.huber_loss(ad.tensor([0.5]), 1.0).value - 0.125) < 1e-12
    assert abs(ad.huber_loss(ad.tensor([2.0]), 1.0).value - 1.5) < 1e-12
    mixed = ad.huber_loss(ad.tensor([0.5, 2.0]), 1.0).value
    assert abs(mixed - (0.125 + 1.5) / 2) < 1e-12


def test_l1_loss_value_and_grad(rng):
    d = rng.normal(0, 1, (3, 4))
    t = ad.tensor(d)
    loss = ad.l1_loss(t)
    assert abs(loss.value - np.abs(d).mean()) < 1e-12
    loss.backward()
    assert np.allclose(t.grad, np.sign(d) / d.size, atol=1e-12)


@pytest.mark.parametrize("name,op,shape", [
    ("add", lambda x: x + x * 2.0, (3, 4)),
    ("mul", lambda x: x * x, (3, 4)),
    ("getitem", lambda x: x[1:, :2] * 3.0, (4, 4)),
    ("exp", ad.exp, (3, 3)),
    ("sub", lambda x: x - x * x, (3, 3)),
    ("broadcast_to", lambda x: ad.broadcast_to(x, (4, 3)) * ad.broadcast_to(x, (4, 3)), (1, 3)),
    ("silu", ad.silu, (3, 3)),
    ("softplus", ad.softplus, (3, 3)),
    ("relu", ad.relu, (3, 3)),
    ("softmax", ad.softmax, (4, 5)),
    ("reshape", lambda x: ad.reshape(x, (2, 6)) * 2.0, (3, 4)),
    ("transpose", lambda x: ad.transpose(x) * ad.transpose(x), (3, 4)),
    ("mean", lambda x: x.mean(axis=0), (5, 3)),
    ("huber", lambda x: ad.huber_loss(x, 0.7), (4, 4)),
])
def test_finite_diff_elementwise(name, op, shape, rng):
    pt = rng.normal(0, 1, shape)
    if name == "relu":
        pt = pt + np.sign(pt) * 0.05  # keep away from the kink
    assert ad.finite_diff_check(op, pt) < 1e-6


def test_finite_diff_composites(rng):
    w = ad.tensor(rng.normal(0, 0.5, (4, 4)))
    gamma = ad.tensor(rng.normal(1.0, 0.1, 4))
    beta = ad.tensor(rng.normal(0, 0.1, 4))

    def block(x):
        h = ad.layer_norm(x, gamma, beta)
        return ad.scaled_dot_attention(ad.matmul(h, w), h, h)

    assert ad.finite_diff_check(block, rng.normal(0, 1, (5, 4))) < 1e-6


def test_finite_diff_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: x, np.ones(2), eps=1e-8)
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: x, np.ones(2), eps=1e-2)


def test_finite_diff_check_raises_on_nonfinite():
    with pytest.raises(NumericalError):
        ad.finite_diff_check(lambda x: x * np.inf, np.ones(2))


def test_concat_gradient_split(rng):
    a = ad.tensor(rng.normal(0, 1, (3, 2)))
    b = ad.tensor(rng.normal(0, 1, (3, 5)))
    out = ad.concat([a, b], axis=1)
    (out * out).sum().backward()
    assert np.allclose(a.grad, 2 * a.value)
    assert np.allclose(b.grad, 2 * b.value)


def test_tensor_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        ad.tensor([1.0]) / ad.tensor([2.0])


@pytest.mark.parametrize("key", [(slice(None), slice(None, 3)), (2, slice(None)), (slice(None), -1),
                                 slice(1, None, 2), np.int64(3), (1, 2)])
def test_getitem_basic_key_gradient_bytes_equal_add_at(key, rng):
    assert ad._is_basic_key(key)
    x = ad.tensor(rng.normal(0, 1, (5, 4)))
    u = rng.normal(0, 1, (5, 4))
    w = rng.normal(0, 1, x.value[key].shape)
    ((x * u).sum() + (x[key] * w).sum()).backward()  # the slice adds into a written gradient
    want = u.copy()
    np.add.at(want, key, w)
    assert x.grad.tobytes() == want.tobytes()


def test_getitem_repeated_fancy_index_accumulates(rng):
    key = ([0, 2, 0, 0], slice(None))
    assert not ad._is_basic_key(key) and not ad._is_basic_key([1, 1])
    x = ad.tensor(rng.normal(0, 1, (3, 2)))
    w = rng.normal(0, 1, (4, 2))
    (x[key] * w).sum().backward()
    assert np.array_equal(x.grad[0], w[0] + w[2] + w[3])
    assert np.array_equal(x.grad[1], np.zeros(2))
    assert np.array_equal(x.grad[2], w[1])


def test_no_grad_nodes_keep_no_parents_or_closure(rng):
    x = ad.tensor(rng.normal(0, 1, (6, 4)))
    gamma, beta = ad.tensor(np.ones(4)), ad.tensor(np.zeros(4))
    L, C, N = 6, 4, 3
    scan_args = [ad.tensor(rng.normal(0, 0.5, s)) for s in ((L, C), (L, N), (L, N))]
    a, d = ad.tensor(-np.exp(rng.normal(0, 0.3, (C, N)))), ad.tensor(np.ones(C))
    ops = [lambda: ad.exp(x) * x + x, lambda: x[1:, :2], lambda: x[[0, 0]],
           lambda: ad.layer_norm(x, gamma, beta), lambda: ad.softmax(x),
           lambda: ad.matmul(x, ad.transpose(x)).sum(),
           lambda: ssm.selective_scan_fused(ad.softplus(scan_args[0]), *scan_args[1:], a, d, x)]
    for op in ops:
        with_graph = op()
        assert with_graph._parents and with_graph._bwd is not None
        with ad.no_grad():
            bare = op()
        assert bare._parents == () and bare._bwd is None
        assert bare.value.tobytes() == with_graph.value.tobytes()


def test_no_grad_restores_the_mode_after_nesting_and_exceptions():
    assert ad.is_grad_enabled()
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.is_grad_enabled()
        assert not ad.is_grad_enabled()  # the inner block restores "off", not "on"
    assert ad.is_grad_enabled()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside")
    assert ad.is_grad_enabled()
    with ad.no_grad():
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("nested")
        assert not ad.is_grad_enabled()
    assert ad.is_grad_enabled()


def test_finite_diff_check_passes_after_no_grad(rng):
    op = lambda x: ad.layer_norm(x * x, ad.tensor(np.ones(3)), ad.tensor(np.zeros(3)))
    pt = rng.normal(0, 1, (4, 3))
    with ad.no_grad():
        op(ad.tensor(pt))
    assert ad.finite_diff_check(op, pt) < 1e-6


def test_backward_inside_no_grad_raises(rng):
    w = ad.tensor(rng.normal(0, 1, (3, 3)))
    loss = (w * w).sum()  # built with a graph, so a silent no-op would be possible
    with ad.no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            loss.backward()
    assert w.grad is None
    loss.backward()
    assert np.array_equal(w.grad, 2.0 * w.value)
