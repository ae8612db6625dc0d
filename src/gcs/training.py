"""Data ingestion, Adam, and small-scale VAE training with the coherence
regularizer on the decoder's final layer.

All training is plain numpy with manual backprop, single threaded and fully
deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
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
    check_counts,
    check_integer,
)
from .gnn import (
    GenerativeNetwork,
    check_widths,
    network_from_json,
    network_to_json,
    relu,
    sigmoid,
)
from .linops import load_json, matrix_from_json, matrix_to_json, write_json
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


def idx_image_header(images_path: str) -> tuple[int, int, int]:
    """(count, rows, cols) from the 16-byte header of a big-endian IDX image
    file, which is all this reads of it."""
    with open(images_path, "rb") as f:
        head = f.read(16)
    if len(head) < 16:
        raise TruncatedFile(f"{images_path}: header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", head)
    if magic != IMAGE_MAGIC:
        raise BadMagic(f"{images_path}: magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
    return count, rows, cols


def load_idx(images_path: str, labels_path: str | None = None) -> Dataset:
    """Parse big-endian IDX files; pixels scaled by 1/255 and flattened."""
    count, rows, cols = idx_image_header(images_path)
    with open(images_path, "rb") as f:
        raw = f.read()
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
    plus Gaussian noise, clamped to [0, 1].

    The images are formed once; scale, sigmoid, noise and clamp then act in
    place on row blocks of about ADAM_CHUNK entries, whose temporaries stay
    in cache. Consecutive row blocks of noise are the numbers one (count, n)
    draw gives, so the data do not depend on the block.
    """
    check_integer("k_true", k_true)
    if not 1 <= k_true <= n:
        raise DomainError(f"need 1 <= k_true <= n, got k_true={k_true}, n={n}")
    check_counts(count=count)
    rng = derive_rng(seed)
    w = rng.standard_normal((n, k_true))
    z = rng.standard_normal((count, k_true))
    x = z @ w.T
    rows = max(1, ADAM_CHUNK // n)
    for i in range(0, count, rows):
        block = x[i:i + rows]
        block /= np.sqrt(k_true)
        block[...] = sigmoid(block)
        block += noise * rng.standard_normal(block.shape)
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(samples=x)


# Elements per pass of adam_step over a long flat vector: its temporaries then
# stay in cache. About 16 K measured fastest on training's 327 K parameters.
ADAM_CHUNK = 16384


def adam_step(p, g, m, v, t, lr: float, scratch=None) -> None:
    """Bias-corrected Adam step t (counted from 1) on p with gradient g.

    Updates p and its moments m and v in place; p, g, m and v share one
    shape, whatever it is. Recovery and training both step through here.
    t is an int, or an integer array with one step count per entry of p's
    first axis, so that recovery's columns, which start at different
    iterations, step together; either way every bias correction is the
    Python float 1 - b**t, looked up once per call in one table, so each
    column steps bit for bit as it would alone. A 1-D p longer than
    ADAM_CHUNK (training's flat parameters, with an int t) is stepped
    ADAM_CHUNK elements at a time; every update is elementwise, so the
    result is bit for bit the same. scratch, two arrays shaped like p, holds
    the step's temporaries, so that a caller stepping often allocates none;
    without it, or for a chunked p, they are allocated per step or chunk.
    """
    global _bias_table
    t = np.asarray(t)
    try:
        c = _bias_table.take(t, axis=1)
    except IndexError:
        size = 1 << int(t.max()).bit_length()
        _bias_table = np.array([np.fromiter((1 - b**s for s in range(size)), float, size)
                                for b in (_B1, _B2)])
        c = _bias_table.take(t, axis=1)
    c1, c2 = c.reshape((2,) + t.shape + (1,) * (p.ndim - t.ndim))
    if p.ndim == 1 and p.size > ADAM_CHUNK:
        for i in range(0, p.size, ADAM_CHUNK):
            s = slice(i, i + ADAM_CHUNK)
            _adam(p[s], g[s], m[s], v[s], c1, c2, lr)
    else:
        _adam(p, g, m, v, c1, c2, lr, scratch)


_B1, _B2, _EPS = 0.9, 0.999, 1e-8
# Rows 1 - _B1**t and 1 - _B2**t for t below its width, each the Python float
# a step t divides by; grown to the next power of two when outgrown.
_bias_table = np.empty((2, 0))


def _adam(p, g, m, v, c1, c2, lr: float, scratch=None) -> None:
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), each operation in the order
    # the formula gives, through the scratch arrays a and b.
    a, b = (np.empty_like(p), np.empty_like(p)) if scratch is None else scratch
    m *= _B1
    m += np.multiply(g, 1 - _B1, out=a)
    v *= _B2
    v += np.multiply(np.square(g, out=b), 1 - _B2, out=b)
    np.divide(m, c1, out=a)
    a *= lr
    a /= np.add(np.sqrt(np.divide(v, c2, out=b), out=b), _EPS, out=b)
    p -= a


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
        if not self.learning_rate > 0:
            raise DomainError(f"learning rate must be positive, got {self.learning_rate}")
        if not self.learning_rate < math.inf:
            raise DomainError(f"learning rate must be finite, got {self.learning_rate}")
        check_counts(**{"batch size": self.batch_size})
        check_integer("epochs", self.epochs)
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        # A negative weight would train toward higher coherence.
        for name in ("reg_weight", "lam"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be a finite number >= 0, got {value}")


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


def _layers(widths) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each weight in flat-buffer order: the encoder
    layers, the mu and log-variance heads, then the decoder layers. Each
    weight (fan_out, fan_in) is followed by its bias (fan_out,)."""
    k = widths[0]
    enc = [widths[-1], *widths[-2:0:-1]]
    return [*zip(enc[:-1], enc[1:]), (enc[-1], k), (enc[-1], k), *zip(widths[:-1], widths[1:])]


def _unpack(flat, widths):
    """Views of a flat buffer: (encoder [(w, b)], (w_mu, b_mu, w_lv, b_lv),
    decoder [(w, b)])."""
    pairs, i = [], 0
    for a, b in _layers(widths):
        pairs.append((flat[i:i + a * b].reshape(b, a), flat[i + a * b:i + (a + 1) * b]))
        i += (a + 1) * b
    n_enc = len(widths) - 2
    (w_mu, b_mu), (w_lv, b_lv) = pairs[n_enc:n_enc + 2]
    return pairs[:n_enc], (w_mu, b_mu, w_lv, b_lv), pairs[n_enc + 2:]


def _init_params(widths, rng) -> np.ndarray:
    """The flat parameter buffer: He-style Gaussian weights, zero biases."""
    flat = np.zeros(sum((a + 1) * b for a, b in _layers(widths)))
    enc, (w_mu, _, w_lv, _), dec = _unpack(flat, widths)
    for w in [w for w, _ in enc] + [w_mu, w_lv] + [w for w, _ in dec]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[1])
    return flat


def _vae_loss_and_grads(params, grads, x, eps_noise, final_activation, reg) -> float:
    """Forward + manual backprop for one mini-batch; returns the loss.

    params and grads are `_unpack` views of the flat parameter and gradient
    buffers; each gradient is written into its view. reg is None or
    (reg_weight, lam, d_op); the regularizer applies to the decoder's final
    weight matrix only.
    """
    enc, (w_mu, b_mu, w_lv, b_lv), dec = params
    g_enc, (g_wmu, g_bmu, g_wlv, g_blv), g_dec = grads
    n_dec = len(dec)
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

    # Decoder backward.
    d = dy
    for i in range(n_dec - 1, -1, -1):
        gw, gb = g_dec[i]
        np.matmul(d.T, dec_act[i], out=gw)
        d.sum(axis=0, out=gb)
        d = d @ dec[i][0]
        if i > 0:
            d = d * (dec_pre[i - 1] > 0)
    dz = d
    dmu = dz + mu / batch
    dlv = dz * eps_noise * 0.5 * np.exp(0.5 * lv) + 0.5 * (np.exp(lv) - 1.0) / batch
    # Heads.
    h_top = enc_act[-1]
    np.matmul(dmu.T, h_top, out=g_wmu)
    dmu.sum(axis=0, out=g_bmu)
    np.matmul(dlv.T, h_top, out=g_wlv)
    dlv.sum(axis=0, out=g_blv)
    d = dmu @ w_mu + dlv @ w_lv
    # Encoder backward; nothing reads the gradient of the input batch.
    for i in range(len(enc) - 1, -1, -1):
        d = d * (enc_pre[i] > 0)
        gw, gb = g_enc[i]
        np.matmul(d.T, enc_act[i], out=gw)
        d.sum(axis=0, out=gb)
        if i > 0:
            d = d @ enc[i][0]

    if reg is not None:
        reg_weight, lam, d_op = reg
        rho, rho_grad = regularizer(dec[-1][0], d_op, lam)
        loss += reg_weight * rho
        g_last, _ = g_dec[-1]
        g_last += reg_weight * rho_grad
    return loss


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
    come from one derived stream. Any nonfinite loss aborts. Adam steps all
    parameters at once, in place, as one flat vector.
    """
    check_widths(widths)
    if data.count == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if data.dim != widths[-1]:
        raise DimensionMismatch(f"data dim {data.dim} != decoder output {widths[-1]}")
    if regularized and config.reg_weight > 0 and config.d_op is None:
        raise DomainError("regularized training needs a reference operator in the config")
    rng = derive_rng(config.seed)
    params = _init_params(widths, rng)
    grads, m, v = (np.zeros_like(params) for _ in range(3))
    views = _unpack(params, widths)
    grad_views = _unpack(grads, widths)
    k = widths[0]
    reg = None
    if regularized and config.reg_weight > 0:
        reg = (config.reg_weight, config.lam, config.d_op)
    trace = []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(data.count)
        epoch_losses = []
        for start in range(0, data.count, config.batch_size):
            idx = order[start : start + config.batch_size]
            x = data.samples[idx]
            eps_noise = rng.standard_normal((x.shape[0], k))
            loss = _vae_loss_and_grads(views, grad_views, x, eps_noise, final_activation, reg)
            if not np.isfinite(loss):
                raise NonfiniteLoss(f"loss became {loss} at epoch {len(trace)}")
            t += 1
            adam_step(params, grads, m, v, t, config.learning_rate)
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    enc, (w_mu, b_mu, w_lv, b_lv), dec = views
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


def save_vae_and_decoder(model: VaeModel, path: str, decoder_path: str) -> None:
    """save_vae(model, path) and save_network(model.decoder, decoder_path),
    with the decoder JSON-encoded once and its text written into both files."""
    obj = vae_to_json(model)
    # Each top-level value is encoded on its own, and its lists go once it is;
    # joined with json.dumps's separators, the texts are the bytes save_vae
    # writes.
    texts = {key: json.dumps(obj.pop(key)) for key in list(obj)}
    with open(path, "w") as f:
        for i, (key, text) in enumerate(texts.items()):
            f.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            f.write(text)
        f.write("}")
    with open(decoder_path, "w") as f:
        f.write(texts["decoder"])


def load_vae(path: str) -> VaeModel:
    return load_json(path, vae_from_json)
