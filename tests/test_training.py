import json
import struct

import numpy as np
import pytest

from gcs.coherence import network_coherence_heuristic, regularizer
from gcs.errors import (
    BadMagic,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    TruncatedFile,
)
from gcs.gnn import forward, network_to_json, save_network
from gcs.sampling import derive_rng
from gcs.training import (
    AdamState,
    Dataset,
    TrainConfig,
    VaeModel,
    adam_init,
    adam_step,
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


def write_idx_fixture(tmp_path, pixels, labels=None):
    count, rows, cols = pixels.shape
    img = tmp_path / "images-idx3-ubyte"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, count, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    lab = None
    if labels is not None:
        lab = tmp_path / "labels-idx1-ubyte"
        with open(lab, "wb") as f:
            f.write(struct.pack(">II", 0x801, len(labels)))
            f.write(bytes(labels))
    return str(img), (str(lab) if lab else None)


def test_load_idx_bytes(tmp_path):
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    img, lab = write_idx_fixture(tmp_path, pixels, labels=[7, 1])
    ds = load_idx(img, lab)
    assert ds.count == 2 and ds.dim == 12
    np.testing.assert_allclose(ds.samples[0], np.arange(12) / 255.0)
    np.testing.assert_array_equal(ds.labels, [7, 1])


def test_load_idx_no_labels(tmp_path):
    img, _ = write_idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8))
    ds = load_idx(img)
    assert ds.labels is None and ds.samples.shape == (1, 4)


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x804, 1, 2, 2) + bytes(4))
    with pytest.raises(BadMagic):
        load_idx(str(path))


def test_load_idx_truncated(tmp_path):
    path = tmp_path / "short"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 5, 28, 28))  # header promises more
    with pytest.raises(TruncatedFile):
        load_idx(str(path))


def test_load_idx_label_count_mismatch(tmp_path):
    img, _ = write_idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8))
    lab = tmp_path / "labels"
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(DimensionMismatch):
        load_idx(img, str(lab))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def test_synth_dataset_shape_and_range():
    ds = synth_dataset(32, 4, 100, seed=0)
    assert ds.samples.shape == (100, 32)
    assert np.all(ds.samples >= 0.0) and np.all(ds.samples <= 1.0)
    # deterministic per seed
    np.testing.assert_array_equal(ds.samples, synth_dataset(32, 4, 100, seed=0).samples)
    assert not np.array_equal(ds.samples, synth_dataset(32, 4, 100, seed=1).samples)
    with pytest.raises(DomainError):
        synth_dataset(4, 8, 10, seed=0)


def test_synth_dataset_low_rank_structure():
    # Noiseless logits live on a k-dimensional manifold; PCA of the logit
    # matrix must capture nearly everything in k_true components.
    ds = synth_dataset(64, 3, 500, seed=2, noise=0.0)
    logits = np.log(ds.samples / (1 - ds.samples + 1e-300) + 1e-300)
    logits -= logits.mean(axis=0)
    s = np.linalg.svd(logits, compute_uv=False)
    explained = np.sum(s[:3] ** 2) / np.sum(s**2)
    assert explained > 0.999


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_two_step_hand_trace():
    # One scalar parameter, constant gradient 1: hand-computed bias-corrected
    # trace gives steps of exactly lr/(1 + eps') each time.
    p = [np.array([0.0])]
    g = [np.array([1.0])]
    state = adam_init(p)
    lr, eps = 0.1, 1e-8
    p1, state = adam_step(p, g, state, lr=lr)
    # t=1: m_hat = v_hat = 1 -> step lr/(1 + eps)
    assert p1[0][0] == pytest.approx(-lr / (1 + eps), abs=1e-15)
    p2, state = adam_step(p1, g, state, lr=lr)
    # t=2: m = 0.19, v = 0.001999; m_hat = 1, v_hat = 1 -> same step again
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    step2 = lr * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + eps)
    assert p2[0][0] == pytest.approx(p1[0][0] - step2, abs=1e-15)
    assert state.t == 2


def test_adam_shape_validation():
    p = [np.zeros(3)]
    state = adam_init(p)
    with pytest.raises(DimensionMismatch):
        adam_step(p, [np.zeros(4)], state, lr=0.1)
    with pytest.raises(DimensionMismatch):
        adam_step(p, [np.zeros(3), np.zeros(3)], state, lr=0.1)


def test_adam_state_immutable_inputs():
    p = [np.ones(2)]
    g = [np.ones(2)]
    state = adam_init(p)
    p_before = p[0].copy()
    adam_step(p, g, state, lr=0.5)
    np.testing.assert_array_equal(p[0], p_before)  # functional update
    assert isinstance(state, AdamState) and state.t == 0


# ---------------------------------------------------------------------------
# VAE training
# ---------------------------------------------------------------------------


def small_run(seed=0, regularized=False, final="none", epochs=2):
    u = dct2_operator(16)
    data = synth_dataset(16, 2, 200, seed=1)
    cfg = TrainConfig(epochs=epochs, seed=seed, d_op=u, batch_size=32)
    return train_vae(data, [2, 8, 16], final, cfg, regularized=regularized)


def test_train_deterministic_per_seed():
    m1, m2 = small_run(seed=3), small_run(seed=3)
    for w1, w2 in zip(m1.decoder.weights, m2.decoder.weights):
        np.testing.assert_array_equal(w1, w2)
    assert m1.loss_trace == m2.loss_trace
    m3 = small_run(seed=4)
    assert m1.loss_trace != m3.loss_trace


def test_train_loss_decreases():
    m = small_run(epochs=6)
    assert m.loss_trace[-1] < m.loss_trace[0]


def test_trained_model_reconstructs_better_than_init():
    data = synth_dataset(64, 4, 2000, seed=5)

    def recon_err(model):
        x = data.samples[:100]
        mu, _ = model.encode(x)
        x_hat = forward(model.decoder, mu.T).T
        return float(np.mean(np.linalg.norm(x_hat - x, axis=1) / np.linalg.norm(x, axis=1)))

    init = train_vae(data, [8, 32, 64], "none", TrainConfig(epochs=0, seed=0))
    trained = train_vae(data, [8, 32, 64], "none", TrainConfig(epochs=8, seed=0))
    assert recon_err(trained) < 0.5 * recon_err(init)


def test_encoder_shapes():
    m = small_run()
    mu, lv = m.encode(np.zeros(16))
    assert mu.shape == lv.shape == (2,)
    mu_b, lv_b = m.encode(np.zeros((7, 16)))
    assert mu_b.shape == lv_b.shape == (7, 2)


def test_regularized_training_lowers_coherence():
    u = dct2_operator(64)
    data = synth_dataset(64, 4, 2000, seed=5)
    cfg = TrainConfig(epochs=8, seed=0, d_op=u)
    m_plain = train_vae(data, [8, 32, 64], "none", cfg, regularized=False)
    m_reg = train_vae(data, [8, 32, 64], "none", cfg, regularized=True)
    a_plain = network_coherence_heuristic(m_plain.decoder, u)
    a_reg = network_coherence_heuristic(m_reg.decoder, u)
    assert a_reg < a_plain - 0.02


def test_regularized_training_requires_operator():
    data = synth_dataset(16, 2, 50, seed=0)
    with pytest.raises(DomainError):
        train_vae(data, [2, 8, 16], "none", TrainConfig(epochs=1), regularized=True)


def test_train_rejects_empty_and_mismatched():
    with pytest.raises(EmptyDataset):
        train_vae(Dataset(samples=np.zeros((0, 16))), [2, 8, 16], "none", TrainConfig(epochs=1))
    with pytest.raises(DimensionMismatch):
        train_vae(synth_dataset(8, 2, 10, seed=0), [2, 8, 16], "none", TrainConfig(epochs=1))


def test_vae_loss_gradient_finite_difference():
    # End-to-end check of the manual backprop through a tiny batch.
    from gcs.training import _init_params, _vae_loss_and_grads

    rng = derive_rng(7)
    widths = [2, 4, 6]
    params, n_enc = _init_params(widths, "sigmoid", rng)
    n_dec = 2
    x = np.clip(rng.random((3, 6)), 0.01, 0.99)
    eps_noise = rng.standard_normal((3, 2))
    u = dct2_operator(6)
    reg = (10.0, 1.0, u)
    loss, grads = _vae_loss_and_grads(params, n_enc, n_dec, x, eps_noise, "sigmoid", reg)
    h = 1e-6
    rel_errs = []
    for pi in range(len(params)):
        flat = params[pi].ravel()
        for j in range(min(3, flat.size)):
            orig = flat[j]
            flat[j] = orig + h
            lp, _ = _vae_loss_and_grads(params, n_enc, n_dec, x, eps_noise, "sigmoid", reg)
            flat[j] = orig - h
            lm, _ = _vae_loss_and_grads(params, n_enc, n_dec, x, eps_noise, "sigmoid", reg)
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[pi].ravel()[j]
            rel_errs.append(abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    assert max(rel_errs) < 1e-4


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


def test_saved_vae_and_decoder_bytes_equal_json_dump(tmp_path):
    m = small_run(final="sigmoid")
    for save, to_json, obj in [
        (save_vae, vae_to_json, m),
        (save_network, network_to_json, m.decoder),
    ]:
        path = tmp_path / "saved.json"
        save(obj, str(path))
        with open(tmp_path / "dumped.json", "w") as f:
            json.dump(to_json(obj), f)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
