import json
import os
import re
import runpy
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gcs import training
from gcs.coherence import network_coherence_heuristic
from gcs.errors import DimensionMismatch, DomainError, GcsError
from gcs.gnn import forward, network_to_json, save_network, sigmoid
from gcs.sampling import derive_rng
from gcs.training import (
    TrainConfig,
    VaeModel,
    adam_step,
    adam_table,
    load_idx,
    load_vae,
    save_vae,
    synth_dataset,
    train_vae,
    vae_from_json,
    vae_to_json,
)
from gcs.transforms import dct2_operator


# ---------------------------------------------------------------------------
# IDX parsing against a hand-built byte fixture
# ---------------------------------------------------------------------------


def write_idx_fixture(tmp_path, pixels):
    count, rows, cols = pixels.shape
    img = tmp_path / "images-idx3-ubyte"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, count, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    return str(img)


def test_load_idx_bytes(tmp_path):
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    ds = load_idx(write_idx_fixture(tmp_path, pixels))
    assert ds.shape == (2, 12)
    np.testing.assert_allclose(ds[0], np.arange(12) / 255.0)


def test_load_idx_no_labels(tmp_path):
    ds = load_idx(write_idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8)))
    assert ds.shape == (1, 4)


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x804, 1, 2, 2) + bytes(4))
    with pytest.raises(DomainError, match="magic 0x00000804, expected 0x00000803"):
        load_idx(str(path))


def test_load_idx_truncated(tmp_path):
    path = tmp_path / "short"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 5, 28, 28))  # header promises more
    with pytest.raises(DomainError, match="expected 3936 bytes, got 16"):
        load_idx(str(path))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def test_synth_dataset_shape_and_range():
    ds = synth_dataset(32, 4, 100, seed=0)
    assert ds.shape == (100, 32)
    assert np.all(ds >= 0.0) and np.all(ds <= 1.0)
    # deterministic per seed
    np.testing.assert_array_equal(ds, synth_dataset(32, 4, 100, seed=0))
    assert not np.array_equal(ds, synth_dataset(32, 4, 100, seed=1))
    with pytest.raises(DomainError):
        synth_dataset(4, 8, 10, seed=0)


def oracle_synth_dataset(n, k_true, count, seed, noise=0.01):
    # The one-shot formula synth_dataset replaced: whole-array temporaries.
    rng = derive_rng(seed)
    w = rng.standard_normal((n, k_true))
    z = rng.standard_normal((count, k_true))
    x = sigmoid(z @ w.T / np.sqrt(k_true))
    x = x + noise * rng.standard_normal((count, n))
    return np.clip(x, 0.0, 1.0)


@pytest.mark.parametrize("n, k_true, count, seed", [(64, 4, 2000, 999), (64, 3, 1, 2),
                                                    (784, 4, 2000, 6), (784, 20, 333, 1)])
def test_synth_dataset_equals_one_shot_formula_bitwise(n, k_true, count, seed):
    # Row blocks of ADAM_CHUNK // n rows (20 at n = 784, 256 at n = 64); 333
    # rows leave a short last block.
    got = synth_dataset(n, k_true, count, seed)
    want = oracle_synth_dataset(n, k_true, count, seed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_synth_dataset_peak_memory():
    # The one-shot formula peaks near 3.6 times its 12.5 MB result.
    tracemalloc.start()
    try:
        ds = synth_dataset(784, 4, 2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ds.nbytes


def no_draw(*args, **kwargs):
    raise AssertionError("data were drawn before the input was checked")


@pytest.mark.parametrize("k_true, count, message", [
    (0, 10, "need 1 <= k_true <= n, got k_true=0, n=8"),
    (9, 10, "need 1 <= k_true <= n, got k_true=9, n=8"),
    (2, 0, "count must be >= 1, got 0"),
    (2, 2.5, "count must be an integer, got 2.5"),
    (2.5, 10, "k_true must be an integer, got 2.5"),
])
def test_synth_dataset_rejects_bad_shapes_before_drawing(monkeypatch, k_true, count, message):
    monkeypatch.setattr(training, "derive_rng", no_draw)
    with pytest.raises(DomainError, match=message):
        synth_dataset(8, k_true, count, seed=0)


def test_synth_dataset_low_rank_structure():
    # Noiseless logits live on a k-dimensional manifold; PCA of the logit
    # matrix must capture nearly everything in k_true components.
    ds = synth_dataset(64, 3, 500, seed=2, noise=0.0)
    logits = np.log(ds / (1 - ds + 1e-300) + 1e-300)
    logits -= logits.mean(axis=0)
    s = np.linalg.svd(logits, compute_uv=False)
    explained = np.sum(s[:3] ** 2) / np.sum(s**2)
    assert explained > 0.999


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def oracle_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The list-based, allocating Adam that adam_step replaced; state is (m, v, t)."""
    m_list, v_list, t = state
    t += 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, (new_m, new_v, t)


def test_adam_two_step_hand_trace():
    # One scalar parameter, constant gradient 1: hand-computed bias-corrected
    # trace gives steps of exactly lr/(1 + eps') each time.
    p, g, m, v = np.array([0.0]), np.array([1.0]), np.zeros(1), np.zeros(1)
    lr, eps = 0.1, 1e-8
    adam_step(p, g, m, v, 1, lr, adam_table(1))
    # t=1: m_hat = v_hat = 1 -> step lr/(1 + eps)
    p1 = p[0]
    assert p1 == pytest.approx(-lr / (1 + eps), abs=1e-15)
    adam_step(p, g, m, v, 2, lr, adam_table(2))
    # t=2: m = 0.19, v = 0.001999; m_hat = 1, v_hat = 1 -> same step again
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    step2 = lr * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + eps)
    assert p[0] == pytest.approx(p1 - step2, abs=1e-15)
    assert (m[0], v[0]) == pytest.approx((m2, v2), abs=1e-15)


def test_adam_table_holds_every_step_its_run_takes():
    # Each column is the Python float a step divides by; past the table's
    # last column both corrections are 1.0, which adam_step then reads.
    table = adam_table(10**6)
    assert table.shape == (2, 37_413)
    for t in [1, 2, 350, 37_411, 37_412]:
        assert list(table[:, t]) == [1 - 0.9**t, 1 - 0.999**t]
    assert 1 - 0.999**37_411 < 1.0
    assert all(1 - b**t == 1.0 for b in (0.9, 0.999) for t in range(37_412, 10**6, 997))
    assert adam_table(5).shape == (2, 6)


@pytest.mark.parametrize("chunk", [None, 7])
def test_chunked_adam_equals_single_pass_bitwise(monkeypatch, chunk):
    # A length that is not a multiple of the chunk leaves a short last chunk.
    if chunk is not None:
        monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
    size = 3 * training.ADAM_CHUNK + 5
    rng = derive_rng(12)
    flat = rng.standard_normal(size)
    grads, m, v = np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    params, state = [flat.copy()], ([np.zeros(size)], [np.zeros(size)], 0)
    for t in range(1, 4):
        grads[:] = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3, size)
        params, state = oracle_adam_step(params, [grads], state, lr=0.05)
        adam_step(flat, grads, m, v, t, 0.05, adam_table(t))
        for want, got in [(params, flat), (state[0], m), (state[1], v)]:
            assert want[0].tobytes() == got.tobytes()


@pytest.mark.parametrize("shape", [(5000, 3, 1), (5000, 3)])
def test_adam_per_column_steps_equal_scalar_steps_bitwise(shape):
    # Column j takes step 1 + j with moments from earlier steps: one call
    # with the step array equals one scalar call per column.
    rng = derive_rng(13)
    p, g = rng.standard_normal(shape), rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
    m, v = 0.1 * rng.standard_normal(shape), rng.random(shape)
    t = 1 + np.arange(shape[0])
    want, table = [a.copy() for a in (p, m, v)], adam_table(shape[0])
    for j in range(shape[0]):
        adam_step(want[0][j:j + 1], g[j:j + 1], want[1][j:j + 1], want[2][j:j + 1], int(t[j]), 0.1,
                  table)
    adam_step(p, g, m, v, t, 0.1, table)
    for w, got in zip(want, (p, m, v)):
        assert w.tobytes() == got.tobytes()


def test_flat_adam_equals_list_oracle_bitwise():
    rng = derive_rng(11)
    shapes = [(3, 4), (5,), (2, 3, 2), (1,)]
    sizes = [int(np.prod(s)) for s in shapes]
    flat = rng.standard_normal(sum(sizes))
    grads, m, v = np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    cuts = np.cumsum(sizes)[:-1]
    params = [a.reshape(s).copy() for a, s in zip(np.split(flat, cuts), shapes)]
    state = ([np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes], 0)
    for t in range(1, 7):
        # Gradients over several scales, with exact zeros in the first step.
        grads[:] = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-6, 3, flat.size)
        if t == 1:
            grads[::3] = 0.0
        g_list = [a.reshape(s) for a, s in zip(np.split(grads, cuts), shapes)]
        params, state = oracle_adam_step(params, g_list, state, lr=0.05)
        adam_step(flat, grads, m, v, t, 0.05, adam_table(t))
        for want, got in [(params, flat), (state[0], m), (state[1], v)]:
            assert np.concatenate([a.ravel() for a in want]).tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# VAE training
# ---------------------------------------------------------------------------


def small_run(seed=0, epochs=2):
    data = synth_dataset(16, 2, 200, seed=1)
    cfg = TrainConfig(epochs=epochs, batch_size=32)
    return train_vae(data, [2, 8, 16], cfg, None, seed)


def test_train_deterministic_per_seed():
    m1, m2 = small_run(seed=3), small_run(seed=3)
    for w1, w2 in zip(m1.decoder.weights, m2.decoder.weights):
        np.testing.assert_array_equal(w1, w2)
    assert m1.loss_trace == m2.loss_trace
    m3 = small_run(seed=4)
    assert m1.loss_trace != m3.loss_trace


def test_train_nonfinite_loss_is_a_run_failure():
    # A finite but huge learning rate: the first step throws the parameters
    # so far that the next batch's loss is not finite, and training stops.
    data = synth_dataset(16, 2, 64, seed=0)
    config = TrainConfig(learning_rate=1e300, epochs=2, batch_size=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(GcsError, match=r"^loss became (nan|-?inf) at epoch 0$") as caught:
            train_vae(data, [2, 8, 16], config, None, 0)
    assert type(caught.value) is GcsError


def test_train_loss_decreases():
    m = small_run(epochs=6)
    assert m.loss_trace[-1] < m.loss_trace[0]


def test_trained_model_reconstructs_better_than_init():
    data = synth_dataset(64, 4, 2000, seed=5)

    def recon_err(model):
        x = data[:100]
        mu, _ = model.encode(x)
        x_hat = forward(model.decoder, mu.T).T
        return float(np.mean(np.linalg.norm(x_hat - x, axis=1) / np.linalg.norm(x, axis=1)))

    init = train_vae(data, [8, 32, 64], TrainConfig(epochs=0), None, 0)
    trained = train_vae(data, [8, 32, 64], TrainConfig(epochs=8), None, 0)
    assert recon_err(trained) < 0.5 * recon_err(init)


def test_encoder_shapes():
    m = small_run()
    mu, lv = m.encode(np.zeros(16))
    assert mu.shape == lv.shape == (2,)
    mu_b, lv_b = m.encode(np.zeros((7, 16)))
    assert mu_b.shape == lv_b.shape == (7, 2)
    # The docstring's (n,) and (B, n) inputs are array-likes, lists included.
    mu_l, lv_l = m.encode([0.0] * 16)
    assert mu_l.shape == lv_l.shape == (2,)
    np.testing.assert_array_equal(mu_l, mu)


def test_regularized_training_lowers_coherence():
    u = dct2_operator(64)
    data = synth_dataset(64, 4, 2000, seed=5)
    m_plain = train_vae(data, [8, 32, 64], TrainConfig(epochs=8), None, 0)
    m_reg = train_vae(data, [8, 32, 64], TrainConfig(epochs=8), u, 0)
    a_plain = network_coherence_heuristic(m_plain.decoder, u)
    a_reg = network_coherence_heuristic(m_reg.decoder, u)
    assert a_reg < a_plain - 0.02


def test_training_regularizes_only_with_an_operator_and_a_positive_weight():
    # No unitary, or a zero weight, trains bit for bit as plain training;
    # the unitary with a positive weight moves the decoder.
    data = synth_dataset(16, 2, 50, seed=0)
    u = dct2_operator(16)
    runs = [train_vae(data, [2, 8, 16], TrainConfig(epochs=1, **kw), ku, 0).params
            for kw, ku in (({"reg_weight": 0.0}, None), ({}, None), ({"reg_weight": 0.0}, u),
                           ({}, u))]
    assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()
    assert runs[3].tobytes() != runs[0].tobytes()


@pytest.mark.parametrize("kwargs", [{"learning_rate": 0.0}, {"learning_rate": float("nan")},
                                    {"batch_size": 0}, {"epochs": -1}, {"reg_weight": -1.0},
                                    {"reg_weight": float("nan")}, {"reg_weight": float("inf")},
                                    {"lam": -1.0}, {"lam": float("nan")}, {"batch_size": 2.5},
                                    {"batch_size": True}, {"epochs": 2.5}, {"epochs": "1"}])
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        TrainConfig(**kwargs)


def test_train_config_takes_zero_regularizer_weights():
    cfg = TrainConfig(reg_weight=0.0, lam=0.0)
    assert cfg.reg_weight == 0.0 and cfg.lam == 0.0


@pytest.mark.parametrize("u, seed, error, message", [
    (dct2_operator(8), 0, DimensionMismatch, "^the unitary is 8 x 8, the problem's n is 16$"),
    (None, -1, DomainError, "^seed must be >= 0, got -1$"),
    (None, 1.5, DomainError, "^seed must be an integer, got 1.5$"),
])
def test_train_rejects_a_bad_unitary_or_seed_before_drawing(monkeypatch, u, seed, error,
                                                           message):
    # The first draw is the parameter initialization; the unitary's size is
    # checked before the generator is even made.
    data = synth_dataset(16, 2, 10, seed=0)
    monkeypatch.setattr(training, "_init_params", no_draw)
    if u is not None:
        monkeypatch.setattr(training, "derive_rng", no_draw)
    with pytest.raises(error, match=message):
        train_vae(data, [2, 8, 16], TrainConfig(epochs=1), u, seed)


def test_train_rejects_empty_and_mismatched(monkeypatch):
    with pytest.raises(DomainError, match="cannot train on an empty dataset"):
        train_vae(np.zeros((0, 16)), [2, 8, 16], TrainConfig(epochs=1), None, 0)
    with pytest.raises(DimensionMismatch):
        train_vae(synth_dataset(8, 2, 10, seed=0), [2, 8, 16], TrainConfig(epochs=1), None, 0)
    # 1-D or nonfinite data is refused before the first draw.
    monkeypatch.setattr(training, "_init_params", no_draw)
    message = r"^training data must be \(count, n\), got shape \(16,\)$"
    with pytest.raises(DimensionMismatch, match=message):
        train_vae(np.zeros(16), [2, 8, 16], TrainConfig(epochs=1), None, 0)
    data = np.zeros((4, 16))
    data[2, 5] = np.nan
    with pytest.raises(DomainError, match="^training data contains NaN/Inf entries$"):
        train_vae(data, [2, 8, 16], TrainConfig(epochs=1), None, 0)


def test_vae_loss_gradient_finite_difference():
    # End-to-end check of the manual backprop through a tiny batch, on the
    # squared-error loss of the linear final layer.
    from gcs.training import _init_params, _unpack, _vae_loss_and_grads

    def arrays(unpacked):
        enc, heads, dec = unpacked
        return [a for pair in enc for a in pair] + list(heads) + [a for pair in dec for a in pair]

    rng = derive_rng(7)
    widths = [2, 4, 6]
    flat = _init_params(widths, rng)
    params = _unpack(flat, widths)
    grad_flat = np.full_like(flat, np.nan)  # every entry must be written
    grads = _unpack(grad_flat, widths)
    scratch = _unpack(np.empty_like(flat), widths)
    x = np.clip(rng.random((3, 6)), 0.01, 0.99)
    eps_noise = rng.standard_normal((3, 2))
    u = dct2_operator(6)
    reg = (10.0, 1.0, u)
    _vae_loss_and_grads(params, grads, x, eps_noise, reg)
    assert np.all(np.isfinite(grad_flat))
    h = 1e-6
    rel_errs = []
    for p, g in zip(arrays(params), arrays(grads)):
        p = p.reshape(-1)  # a view into flat
        for j in range(min(3, p.size)):
            orig = p[j]
            p[j] = orig + h
            lp = _vae_loss_and_grads(params, scratch, x, eps_noise, reg)
            p[j] = orig - h
            lm = _vae_loss_and_grads(params, scratch, x, eps_noise, reg)
            p[j] = orig
            fd = (lp - lm) / (2 * h)
            gj = g.reshape(-1)[j]
            rel_errs.append(abs(fd - gj) / max(abs(fd), abs(gj), 1e-8))
    assert max(rel_errs) < 1e-4


def test_sweep_models_reproduce_committed_files(tmp_path, monkeypatch):
    # scripts/train_sweep_models.py must rebuild out/desk/models byte for byte.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "argv", ["train_sweep_models.py", "--out-dir", str(tmp_path)])
    runpy.run_path(os.path.join(root, "scripts", "train_sweep_models.py"), run_name="__main__")
    for name in ("unreg.json", "reg.json"):
        with open(os.path.join(root, "out", "desk", "models", name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name


def test_vae_json_roundtrip(tmp_path):
    m = small_run()
    obj = vae_to_json(m)
    m2 = vae_from_json(obj)
    x = derive_rng(8).random((4, 16))
    np.testing.assert_array_equal(m.encode(x)[0], m2.encode(x)[0])
    path = tmp_path / "vae.json"
    save_vae(m, str(path))
    m3 = load_vae(str(path))
    assert isinstance(m3, VaeModel)
    np.testing.assert_array_equal(
        forward(m.decoder, np.ones(2)), forward(m3.decoder, np.ones(2))
    )
    assert m3.loss_trace == m.loss_trace


def test_every_weight_and_bias_is_a_view_of_params(tmp_path):
    m = small_run()
    save_vae(m, str(tmp_path / "vae.json"))
    loaded = load_vae(str(tmp_path / "vae.json"))
    for model in (m, loaded):
        enc, heads, dec = model.views
        arrays = [a for pair in enc + dec for a in pair] + list(heads)
        arrays += model.decoder.weights + model.decoder.biases
        assert len(arrays) == 14
        assert all(np.shares_memory(a, model.params) for a in arrays)
    assert loaded.params.tobytes() == m.params.tobytes()
    assert loaded.widths == [2, 8, 16]


def cut(entries, count=1):
    """A JSON matrix or bias list with its last count columns or entries cut."""
    if isinstance(entries, list):
        return entries[:-count]
    rows, cols = entries["rows"], entries["cols"]
    data = np.asarray(entries["data"]).reshape(rows, cols)[:, :cols - count]
    return {**entries, "cols": cols - count, "data": data.ravel().tolist()}


@pytest.mark.parametrize("edit, message", [
    (lambda e, d: e.update(w_mu=cut(e["w_mu"])),
     "mu weight is float64 (2, 7), where widths [2, 8, 16] give float64 (2, 8)"),
    (lambda e, d: e.update(b_mu=e["b_mu"][:1]), "mu bias is float64 (1,)"),
    (lambda e, d: e["layers"][0].update(bias=cut(e["layers"][0]["bias"], 7)),
     "encoder layer 0 bias is float64 (1,), where widths [2, 8, 16] give float64 (8,)"),
    (lambda e, d: e.update(b_lv=[0.0, float("nan")]), "bias contains NaN/Inf entries"),
    (lambda e, d: e.update(w_lv={**e["w_lv"], "complex": True, "cols": 4}),
     "log-variance weight is complex128 (2, 4)"),
    (lambda e, d: e["layers"].append(e["layers"][0]),
     "6 weights, where widths [2, 8, 16] give 5"),
    (lambda e, d: d.update(widths=[2, 8, 8, 16]), "5 weights, where widths [2, 8, 8, 16] give 7"),
    (lambda e, d: d.update(widths=[2, 9, 16]), "encoder layer 0 weight is float64 (8, 16), where "),
    (lambda e, d: d["layers"][1].pop("bias"), "missing key 'bias'"),
    (lambda e, d: d.update(final_activation="tanh"), "final activation 'tanh': every network's "
                                                     "final layer is linear"),
    (lambda e, d: d.update(final_activation="sigmoid"), "final activation 'sigmoid': every "
                                                        "network's final layer is linear"),
], ids=["w_mu-column-short", "b_mu-cut", "encoder-bias-cut", "nan-bias", "complex-weight",
        "extra-encoder-layer", "widths-too-deep", "widths-wrong", "decoder-bias-missing",
        "final-activation", "final-activation-sigmoid"])
def test_load_vae_rejects_a_file_that_does_not_fit_its_layout(tmp_path, edit, message):
    path = tmp_path / "vae.json"
    save_vae(small_run(), str(path))
    obj = json.loads(path.read_text())
    edit(obj["encoder"], obj["decoder"])
    path.write_text(json.dumps(obj))
    with pytest.raises(DomainError, match="^" + re.escape(f"{path}: ")) as info:
        load_vae(str(path))
    assert message in str(info.value)


def test_saved_vae_and_decoder_bytes_equal_json_dump(tmp_path):
    m = small_run()
    for save, to_json, obj in [
        (save_vae, vae_to_json, m),
        (save_network, network_to_json, m.decoder),
    ]:
        path = tmp_path / "saved.json"
        save(obj, str(path))
        assert path.read_text() == json.dumps(to_json(obj), default=np.ndarray.tolist)
    # Both files of one save_vae call with a decoder path, the decoder encoded once.
    save_vae(m, str(tmp_path / "m.json"), str(tmp_path / "m.decoder.json"))
    for name, to_json, obj in [("m.json", vae_to_json, m),
                               ("m.decoder.json", network_to_json, m.decoder)]:
        assert (tmp_path / name).read_text() == json.dumps(to_json(obj), default=np.ndarray.tolist)
