"""Shared fixtures: seeded corpora and a small trained checkpoint.

Session-scoped so the expensive artifacts (synthetic datasets, a short
training run) are built once and reused across test modules.
"""
import multiprocessing

import numpy as np
import pytest

from gesturegen import autodiff as ad, config, harness, synthetic


def pytest_collection_modifyitems(items):
    """Mark `slow` the tests that use the full-pipeline fixtures `overfit_runs` and
    `ablation_runs` (minutes each): `pytest -m "not slow"` is the quick loop."""
    for item in items:
        if {"overfit_runs", "ablation_runs"} & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def toy_cfg():
    return config.load_config(None, preset="toy")


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory, toy_cfg):
    out = tmp_path_factory.mktemp("toy") / "data"
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(toy_cfg), out)
    return out


@pytest.fixture(scope="session")
def mini_cfg():
    """A deliberately small config for fast harness/CLI tests."""
    return config.load_config(None, preset="toy", overrides={
        "synthetic.n_clips": 6, "synthetic.frames": 60, "synthetic.joints": 4,
        "model.d": 32, "model.layers": 2, "train.steps": 8,
        "diffusion.steps": 10, "eval.extractor_steps": 30,
        "sample.max_conditions": 2,
    })


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory, mini_cfg):
    out = tmp_path_factory.mktemp("mini") / "data"
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(mini_cfg), out)
    return out


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory, mini_cfg, mini_corpus):
    """A short training run on the mini corpus; returns run_train's result."""
    out = tmp_path_factory.mktemp("mini") / "run"
    return harness.run_train(mini_cfg, mini_corpus, out)


@pytest.fixture(autouse=True)
def grad_mode_left_on():
    """Fail a test that leaves autodiff's grad mode off: a leaked `no_grad` would build no
    graph in any later test, so training there would silently stop."""
    yield
    if not ad.is_grad_enabled():
        ad._grad_enabled = True  # so the leak does not spread to later tests
        pytest.fail("autodiff grad mode was left off (a no_grad block did not exit)")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live `multiprocessing` child, such as a training worker
    that was never joined; the child is ended so that it does not outlive the suite."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"child processes left running: {left}")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def scan_oracle():
    """The selective scan as a plain loop over time steps, sharing no code with `ssm`:
    h_k = abar_k h_{k-1} + bbar_k u_k from h = 0, y_k = sum_n cmat_k h_k + d u_k, with
    abar = exp(delta a), bbar = delta b_proj and cmat = c_proj per channel. Takes the
    arguments of `ssm.selective_scan_fused` as arrays."""
    def scan(delta, b_proj, c_proj, a, d, u):
        abar = np.exp(delta[:, :, None] * a[None])
        bbar = delta[:, :, None] * b_proj[:, None, :]
        h = np.zeros(a.shape)
        y = np.empty(u.shape)
        for k in range(len(u)):
            h = abar[k] * h + bbar[k] * u[k][:, None]
            y[k] = (c_proj[k] * h).sum(axis=1) + d * u[k]
        return y
    return scan


@pytest.fixture(scope="session")
def scan_graph_oracle():
    """The fused selective scan as a per-step graph of plain `autodiff` ops, sharing no
    code with `ssm`, so its gradients come from the generic engine and not from the
    scan's hand-written backward. Takes tensors delta, u (L x C), b_proj, c_proj (L x N),
    a (C x N) and d (C); returns y (L x C)."""
    def scan(delta, b_proj, c_proj, a, d, u):
        L, C = u.shape
        N = a.shape[1]
        rows = []
        for k in range(L):
            dk = ad.reshape(delta[k, :], (C, 1))
            inp = dk * ad.reshape(u[k, :], (C, 1)) * ad.reshape(b_proj[k, :], (1, N))
            h = inp if k == 0 else ad.exp(dk * a) * h + inp
            y_k = (h * ad.reshape(c_proj[k, :], (1, N))).sum(1) + d * u[k, :]
            rows.append(ad.reshape(y_k, (1, C)))
        return ad.concat(rows, axis=0)
    return scan
