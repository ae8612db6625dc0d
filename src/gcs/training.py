"""Data ingestion, Adam, and small-scale VAE training with the coherence
regularizer on the decoder's final layer.

All training is plain numpy with manual backprop, single threaded and fully
deterministic given the config seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .coherence import regularizer
from .errors import (
    BadMagic,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    NonfiniteLoss,
    TruncatedFile,
)
from .gnn import GenerativeNetwork, network_from_json, network_to_json, relu, sigmoid
from .linops import matrix_from_json, matrix_to_json, write_json
from .sampling import derive_rng
from .transforms import UnitaryOperator

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    samples: np.ndarray = field(repr=False)  # (count, n), entries in [0, 1]
    labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def load_idx(images_path: str, labels_path: str | None = None) -> Dataset:
    """Parse big-endian IDX files; pixels scaled by 1/255 and flattened."""
    with open(images_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise TruncatedFile(f"{images_path}: header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise BadMagic(f"{images_path}: magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise TruncatedFile(f"{images_path}: expected {need} bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    samples = pixels.reshape(count, rows * cols).astype(float) / 255.0
    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            lraw = f.read()
        if len(lraw) < 8:
            raise TruncatedFile(f"{labels_path}: header truncated")
        lmagic, lcount = struct.unpack(">II", lraw[:8])
        if lmagic != LABEL_MAGIC:
            raise BadMagic(f"{labels_path}: magic {lmagic:#010x}, expected {LABEL_MAGIC:#010x}")
        if lcount != count:
            raise DimensionMismatch(f"{lcount} labels for {count} images")
        if len(lraw) < 8 + lcount:
            raise TruncatedFile(f"{labels_path}: label bytes truncated")
        labels = np.frombuffer(lraw, dtype=np.uint8, count=lcount, offset=8).copy()
    return Dataset(samples=samples, labels=labels)


def synth_dataset(n: int, k_true: int, count: int, seed: int, noise: float = 0.01) -> Dataset:
    """Hermetic MNIST stand-in: sigmoid of random k_true-dim linear images
    plus Gaussian noise, clamped to [0, 1]."""
    if k_true > n:
        raise DomainError("k_true must be <= n")
    rng = derive_rng(seed)
    w = rng.standard_normal((n, k_true))
    z = rng.standard_normal((count, k_true))
    x = sigmoid(z @ w.T / np.sqrt(k_true))
    x = x + noise * rng.standard_normal((count, n))
    return Dataset(samples=np.clip(x, 0.0, 1.0))


@dataclass(frozen=True)
class AdamState:
    m: list = field(repr=False)
    v: list = field(repr=False)
    t: int = 0


def adam_init(params: list) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list,
    grads: list,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list, AdamState]:
    """One bias-corrected Adam update over a list of parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatch("params/grads/state length mismatch")
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionMismatch("parameter and gradient shapes differ")
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 10
    reg_weight: float = 1e4
    lam: float = 1.0
    seed: int = 0
    d_op: UnitaryOperator | None = None

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be positive, batch_size >= 1")


@dataclass(frozen=True)
class VaeModel:
    enc_weights: list = field(repr=False)
    enc_biases: list = field(repr=False)
    w_mu: np.ndarray = field(repr=False)
    b_mu: np.ndarray = field(repr=False)
    w_lv: np.ndarray = field(repr=False)
    b_lv: np.ndarray = field(repr=False)
    decoder: GenerativeNetwork = field(repr=False)
    loss_trace: list = field(default_factory=list, repr=False)

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-variance of the latent posterior. x is (n,) or (B, n)."""
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=float))
        for w, b in zip(self.enc_weights, self.enc_biases):
            h = relu(h @ w.T + b)
        mu = h @ self.w_mu.T + self.b_mu
        lv = h @ self.w_lv.T + self.b_lv
        if single:
            return mu[0], lv[0]
        return mu, lv


def _init_params(widths, final_activation, rng):
    """He-style Gaussian init; returns (param list, layout description)."""
    k, n = widths[0], widths[-1]
    enc_widths = [n] + list(reversed(widths[1:-1]))
    params = []
    for a, b in zip(enc_widths[:-1], enc_widths[1:]):
        params.append(rng.standard_normal((b, a)) * np.sqrt(2.0 / a))
        params.append(np.zeros(b))
    h = enc_widths[-1]
    params.append(rng.standard_normal((k, h)) * np.sqrt(2.0 / h))  # w_mu
    params.append(np.zeros(k))
    params.append(rng.standard_normal((k, h)) * np.sqrt(2.0 / h))  # w_lv
    params.append(np.zeros(k))
    for a, b in zip(widths[:-1], widths[1:]):
        params.append(rng.standard_normal((b, a)) * np.sqrt(2.0 / a))
        params.append(np.zeros(b))
    return params, len(enc_widths) - 1


def _unpack(params, n_enc_layers, n_dec_layers):
    i = 0
    enc = []
    for _ in range(n_enc_layers):
        enc.append((params[i], params[i + 1]))
        i += 2
    w_mu, b_mu, w_lv, b_lv = params[i], params[i + 1], params[i + 2], params[i + 3]
    i += 4
    dec = []
    for _ in range(n_dec_layers):
        dec.append((params[i], params[i + 1]))
        i += 2
    return enc, (w_mu, b_mu, w_lv, b_lv), dec


def _vae_loss_and_grads(params, n_enc, n_dec, x, eps_noise, final_activation, reg):
    """Forward + manual backprop for one mini-batch.

    reg is None or (reg_weight, lam, d_op); the regularizer applies to the
    decoder's final weight matrix only.
    """
    enc, (w_mu, b_mu, w_lv, b_lv), dec = _unpack(params, n_enc, n_dec)
    batch = x.shape[0]

    enc_pre, enc_act = [], [x]
    h = x
    for w, b in enc:
        a = h @ w.T + b
        enc_pre.append(a)
        h = relu(a)
        enc_act.append(h)
    mu = h @ w_mu.T + b_mu
    lv = h @ w_lv.T + b_lv
    z = mu + np.exp(0.5 * lv) * eps_noise

    dec_pre, dec_act = [], [z]
    h = z
    for i, (w, b) in enumerate(dec):
        a = h @ w.T + b
        dec_pre.append(a)
        if i < n_dec - 1:
            h = relu(a)
            dec_act.append(h)
    y = dec_pre[-1]
    if final_activation == "sigmoid":
        x_hat = sigmoid(y)
        # BCE via logits for stability.
        recon = float(np.sum(np.maximum(y, 0) - y * x + np.log1p(np.exp(-np.abs(y))))) / batch
        dy = (x_hat - x) / batch
    else:
        x_hat = y
        recon = 0.5 * float(np.sum((x_hat - x) ** 2)) / batch
        dy = (x_hat - x) / batch
    kl = -0.5 * float(np.sum(1.0 + lv - mu**2 - np.exp(lv))) / batch
    loss = recon + kl

    grads = [np.zeros_like(p) for p in params]
    base_dec = 2 * n_enc + 4
    # Decoder backward.
    d = dy
    for i in range(n_dec - 1, -1, -1):
        w, _ = dec[i]
        grads[base_dec + 2 * i] = d.T @ dec_act[i]
        grads[base_dec + 2 * i + 1] = d.sum(axis=0)
        d = d @ w
        if i > 0:
            d = d * (dec_pre[i - 1] > 0)
    dz = d
    dmu = dz + mu / batch
    dlv = dz * eps_noise * 0.5 * np.exp(0.5 * lv) + 0.5 * (np.exp(lv) - 1.0) / batch
    # Heads.
    h_top = enc_act[-1]
    grads[2 * n_enc] = dmu.T @ h_top
    grads[2 * n_enc + 1] = dmu.sum(axis=0)
    grads[2 * n_enc + 2] = dlv.T @ h_top
    grads[2 * n_enc + 3] = dlv.sum(axis=0)
    d = dmu @ w_mu + dlv @ w_lv
    # Encoder backward.
    for i in range(n_enc - 1, -1, -1):
        d = d * (enc_pre[i] > 0)
        w, _ = enc[i]
        grads[2 * i] = d.T @ enc_act[i]
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ w

    if reg is not None:
        reg_weight, lam, d_op = reg
        w_last_idx = base_dec + 2 * (n_dec - 1)
        rho, rho_grad = regularizer(params[w_last_idx], d_op, lam)
        loss += reg_weight * rho
        grads[w_last_idx] = grads[w_last_idx] + reg_weight * rho_grad
    return loss, grads


def train_vae(
    data: Dataset,
    widths: list[int],
    final_activation: str,
    config: TrainConfig,
    regularized: bool = False,
) -> VaeModel:
    """Train an encoder/decoder pair by Adam on the ELBO; optionally add
    reg_weight * rho(W_dec_final) to the loss.

    Deterministic per seed: init, shuffles, and reparameterization noise all
    come from one derived stream. Any nonfinite loss aborts.
    """
    if data.count == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if data.dim != widths[-1]:
        raise DimensionMismatch(f"data dim {data.dim} != decoder output {widths[-1]}")
    if regularized and config.reg_weight > 0 and config.d_op is None:
        raise DomainError("regularized training needs a reference operator in the config")
    rng = derive_rng(config.seed)
    params, n_enc = _init_params(widths, final_activation, rng)
    n_dec = len(widths) - 1
    k = widths[0]
    state = adam_init(params)
    reg = None
    if regularized and config.reg_weight > 0:
        reg = (config.reg_weight, config.lam, config.d_op)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(data.count)
        epoch_losses = []
        for start in range(0, data.count, config.batch_size):
            idx = order[start : start + config.batch_size]
            x = data.samples[idx]
            eps_noise = rng.standard_normal((x.shape[0], k))
            loss, grads = _vae_loss_and_grads(
                params, n_enc, n_dec, x, eps_noise, final_activation, reg
            )
            if not np.isfinite(loss):
                raise NonfiniteLoss(f"loss became {loss} at epoch {len(trace)}")
            params, state = adam_step(params, grads, state, config.learning_rate)
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    enc, (w_mu, b_mu, w_lv, b_lv), dec = _unpack(params, n_enc, n_dec)
    decoder = GenerativeNetwork(
        weights=[w for w, _ in dec],
        biases=[b for _, b in dec],
        final_activation=final_activation,
    )
    return VaeModel(
        enc_weights=[w for w, _ in enc],
        enc_biases=[b for _, b in enc],
        w_mu=w_mu,
        b_mu=b_mu,
        w_lv=w_lv,
        b_lv=b_lv,
        decoder=decoder,
        loss_trace=trace,
    )


def vae_to_json(model: VaeModel) -> dict:
    enc_layers = []
    for w, b in zip(model.enc_weights, model.enc_biases):
        layer = matrix_to_json(w)
        layer["bias"] = b.tolist()
        enc_layers.append(layer)
    return {
        "encoder": {
            "layers": enc_layers,
            "w_mu": matrix_to_json(model.w_mu),
            "b_mu": model.b_mu.tolist(),
            "w_lv": matrix_to_json(model.w_lv),
            "b_lv": model.b_lv.tolist(),
        },
        "decoder": network_to_json(model.decoder),
        "loss_trace": list(model.loss_trace),
    }


def vae_from_json(obj: dict) -> VaeModel:
    enc = obj["encoder"]
    return VaeModel(
        enc_weights=[matrix_from_json(layer) for layer in enc["layers"]],
        enc_biases=[np.asarray(layer["bias"], dtype=float) for layer in enc["layers"]],
        w_mu=matrix_from_json(enc["w_mu"]),
        b_mu=np.asarray(enc["b_mu"], dtype=float),
        w_lv=matrix_from_json(enc["w_lv"]),
        b_lv=np.asarray(enc["b_lv"], dtype=float),
        decoder=network_from_json(obj["decoder"]),
        loss_trace=list(obj.get("loss_trace", [])),
    )


def save_vae(model: VaeModel, path: str) -> None:
    write_json(vae_to_json(model), path)


def load_vae(path: str) -> VaeModel:
    with open(path) as f:
        return vae_from_json(json.load(f))
