"""Data ingestion, Adam, and small-scale VAE training with the coherence
regularizer on the decoder's final layer.

All training is plain numpy with manual backprop, single threaded and fully
deterministic given the config seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coherence import regularizer
from .errors import (DimensionMismatch, DomainError, GcsError, check_array_size, check_counts,
                     check_number)
from .gnn import GenerativeNetwork, check_widths, network_to_json, relu, sigmoid, stored_widths
from .linops import check_finite, load_json, matrix_from_json, matrix_to_json, write_json
from .sampling import derive_rng
from .transforms import UnitaryOperator

IMAGE_MAGIC = 0x00000803


def load_idx(images_path: str) -> np.ndarray:
    """Parse a big-endian IDX image file: a (count, rows * cols) array of its
    pixels scaled by 1/255."""
    with open(images_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise DomainError(f"{images_path}: header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise DomainError(f"{images_path}: magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise DomainError(f"{images_path}: expected {need} bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols).astype(float) / 255.0


def synth_dataset(n: int, k_true: int, count: int, seed: int, noise: float = 0.01) -> np.ndarray:
    """Hermetic MNIST stand-in, (count, n): sigmoid of random k_true-dim
    linear images plus Gaussian noise, clamped to [0, 1].

    The images are formed once; scale, sigmoid, noise and clamp then act in
    place on row blocks of about ADAM_CHUNK entries, whose temporaries stay
    in cache. Consecutive row blocks of noise are the numbers one (count, n)
    draw gives, so the data do not depend on the block.
    """
    check_number("k_true", k_true, integer=True)
    if not 1 <= k_true <= n:
        raise DomainError(f"need 1 <= k_true <= n, got k_true={k_true}, n={n}")
    check_counts(count=count)
    check_array_size(f"count={count} samples of n={n}", count, n)
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
    return x


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
        check_number("learning rate", self.learning_rate, positive=True)
        check_counts(**{"batch size": self.batch_size})
        check_number("epochs", self.epochs, 0, integer=True)
        # A negative weight would train toward higher coherence.
        check_number("reg_weight", self.reg_weight, 0)
        check_number("lam", self.lam, 0)


@dataclass(frozen=True)
class VaeModel:
    """A VAE: its decoder widths [k, ..., n] and the one flat parameter
    vector that training steps, laid out by `_layers`. Every weight and bias
    is a view of params."""

    widths: list
    params: np.ndarray = field(repr=False)
    loss_trace: list = field(default_factory=list, repr=False)

    @cached_property
    def views(self):
        """`_unpack` views of params: (encoder [(w, b)], (w_mu, b_mu, w_lv,
        b_lv), decoder [(w, b)])."""
        return _unpack(self.params, self.widths)

    @cached_property
    def decoder(self) -> GenerativeNetwork:
        dec = self.views[2]
        return GenerativeNetwork(weights=[w for w, _ in dec], biases=[b for _, b in dec])

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-variance of the latent posterior. x is (n,) or (B, n)."""
        enc, heads, _ = self.views
        mu, lv, _, _ = _encode(enc, heads, np.atleast_2d(np.asarray(x, dtype=float)))
        if x.ndim == 1:
            return mu[0], lv[0]
        return mu, lv


def _layers(widths) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each weight in flat-buffer order: the encoder
    layers, the mu and log-variance heads, then the decoder layers. Each
    weight (fan_out, fan_in) is followed by its bias (fan_out,)."""
    k = widths[0]
    enc = [widths[-1], *widths[-2:0:-1]]
    return [*zip(enc[:-1], enc[1:]), (enc[-1], k), (enc[-1], k), *zip(widths[:-1], widths[1:])]


def _pairs(flat, widths) -> list:
    """(weight, bias) views of a flat buffer, in `_layers` order."""
    pairs, i = [], 0
    for a, b in _layers(widths):
        pairs.append((flat[i:i + a * b].reshape(b, a), flat[i + a * b:i + (a + 1) * b]))
        i += (a + 1) * b
    return pairs


def _unpack(flat, widths):
    """Views of a flat buffer: (encoder [(w, b)], (w_mu, b_mu, w_lv, b_lv),
    decoder [(w, b)])."""
    pairs = _pairs(flat, widths)
    n_enc = len(widths) - 2
    (w_mu, b_mu), (w_lv, b_lv) = pairs[n_enc:n_enc + 2]
    return pairs[:n_enc], (w_mu, b_mu, w_lv, b_lv), pairs[n_enc + 2:]


def _init_params(widths, rng) -> np.ndarray:
    """The flat parameter buffer: He-style Gaussian weights, zero biases."""
    size = sum((a + 1) * b for a, b in _layers(widths))
    check_array_size(f"the parameters of arch {','.join(map(str, widths))}: {size}", size)
    flat = np.zeros(size)
    for w, _ in _pairs(flat, widths):
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[1])
    return flat


def _forward(pairs, x, relu_last):
    """Layers (w, b) over a batch x, each but the last followed by a ReLU,
    and the last too where relu_last: (each layer's pre-activation, each
    layer's input and, where relu_last, the last layer's output)."""
    pre, act = [], [x]
    h = x
    for i, (w, b) in enumerate(pairs):
        a = h @ w.T + b
        pre.append(a)
        if relu_last or i < len(pairs) - 1:
            h = relu(a)
            act.append(h)
    return pre, act


def _backward(pairs, grads, pre, act, d, relu_last, input_grad):
    """Backprop d, the gradient at the output of a `_forward` pass, through
    its layers: each (weight, bias) gradient is written into grads. Returns
    the gradient at the input x where input_grad, else at the first layer's
    pre-activation."""
    for i in range(len(pairs) - 1, -1, -1):
        if relu_last or i < len(pairs) - 1:
            d = d * (pre[i] > 0)
        gw, gb = grads[i]
        np.matmul(d.T, act[i], out=gw)
        d.sum(axis=0, out=gb)
        if input_grad or i > 0:
            d = d @ pairs[i][0]
    return d


def _encode(enc, heads, x):
    """The encoder pass over a batch x: (mu, log-variance, and the
    `_forward` pre-activations and layer inputs and output)."""
    w_mu, b_mu, w_lv, b_lv = heads
    pre, act = _forward(enc, x, True)
    h = act[-1]
    return h @ w_mu.T + b_mu, h @ w_lv.T + b_lv, pre, act


def _vae_loss_and_grads(params, grads, x, eps_noise, reg) -> float:
    """Forward + manual backprop for one mini-batch; returns the loss.

    params and grads are `_unpack` views of the flat parameter and gradient
    buffers; each gradient is written into its view. reg is None or
    (reg_weight, lam, d_op); the regularizer applies to the decoder's final
    weight matrix only. It runs after the ELBO pass has returned, so that
    its n x k products do not form beside the pass's activations.
    """
    loss = _elbo_and_grads(params, grads, x, eps_noise)
    if reg is not None:
        reg_weight, lam, d_op = reg
        (w_last, _), (g_last, _) = params[2][-1], grads[2][-1]
        rho, rho_grad = regularizer(w_last, d_op, lam)
        loss += reg_weight * rho
        rho_grad *= reg_weight
        g_last += rho_grad
    return loss


def _elbo_and_grads(params, grads, x, eps_noise) -> float:
    """The negative ELBO of one mini-batch, its gradient written into the
    views grads."""
    enc, heads, dec = params
    w_mu, _, w_lv, _ = heads
    g_enc, (g_wmu, g_bmu, g_wlv, g_blv), g_dec = grads
    batch = x.shape[0]

    mu, lv, enc_pre, enc_act = _encode(enc, heads, x)
    z = mu + np.exp(0.5 * lv) * eps_noise
    dec_pre, dec_act = _forward(dec, z, False)
    x_hat = dec_pre[-1]
    recon = 0.5 * float(np.sum((x_hat - x) ** 2)) / batch
    kl = -0.5 * float(np.sum(1.0 + lv - mu**2 - np.exp(lv))) / batch
    loss = recon + kl

    dz = _backward(dec, g_dec, dec_pre, dec_act, (x_hat - x) / batch, False, True)
    dmu = dz + mu / batch
    dlv = dz * eps_noise * 0.5 * np.exp(0.5 * lv) + 0.5 * (np.exp(lv) - 1.0) / batch
    # Heads.
    h_top = enc_act[-1]
    np.matmul(dmu.T, h_top, out=g_wmu)
    dmu.sum(axis=0, out=g_bmu)
    np.matmul(dlv.T, h_top, out=g_wlv)
    dlv.sum(axis=0, out=g_blv)
    # Nothing reads the gradient of the input batch.
    _backward(enc, g_enc, enc_pre, enc_act, dmu @ w_mu + dlv @ w_lv, True, False)
    return loss


def train_vae(data: np.ndarray, widths: list[int], config: TrainConfig) -> VaeModel:
    """Train an encoder/decoder pair by Adam on the ELBO over data, a
    (count, n) array. With a reference operator config.d_op and a positive
    reg_weight, add reg_weight * rho(W_dec_final) to the loss.

    Deterministic per seed: init, shuffles, and reparameterization noise all
    come from one derived stream. A nonfinite loss, or nonfinite parameters
    after the last step, aborts. Adam steps all parameters at once, in
    place, as one flat vector.
    """
    check_widths(widths)
    count, dim = data.shape
    if count == 0:
        raise DomainError("cannot train on an empty dataset")
    if dim != widths[-1]:
        raise DimensionMismatch(f"data dim {dim} != decoder output {widths[-1]}")
    rng = derive_rng(config.seed)
    params = _init_params(widths, rng)
    grads, m, v = (np.zeros_like(params) for _ in range(3))
    views = _unpack(params, widths)
    grad_views = _unpack(grads, widths)
    k = widths[0]
    reg = None
    if config.d_op is not None and config.reg_weight > 0:
        reg = (config.reg_weight, config.lam, config.d_op)
    trace = []
    t = 0
    # The nonfinite-loss check reports an overflow; numpy's warnings are off.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(count)
            epoch_losses = []
            for start in range(0, count, config.batch_size):
                idx = order[start : start + config.batch_size]
                x = data[idx]
                eps_noise = rng.standard_normal((x.shape[0], k))
                loss = _vae_loss_and_grads(views, grad_views, x, eps_noise, reg)
                if not np.isfinite(loss):
                    raise GcsError(f"loss became {loss} at epoch {len(trace)}")
                t += 1
                adam_step(params, grads, m, v, t, config.learning_rate)
                epoch_losses.append(loss)
            trace.append(float(np.mean(epoch_losses)))
    # Each loss is checked before its step, so this checks the last step.
    if not np.isfinite(params).all():
        raise GcsError(f"training made the parameters nonfinite at epoch {len(trace) - 1} "
                       f"(learning rate {config.learning_rate:g})")
    return VaeModel(list(widths), params, trace)


def vae_to_json(model: VaeModel) -> dict:
    enc, (w_mu, b_mu, w_lv, b_lv), _ = model.views
    return {
        "encoder": {
            "layers": [{**matrix_to_json(w), "bias": b} for w, b in enc],
            "w_mu": matrix_to_json(w_mu),
            "b_mu": b_mu,
            "w_lv": matrix_to_json(w_lv),
            "b_lv": b_lv,
        },
        "decoder": network_to_json(model.decoder),
        "loss_trace": list(model.loss_trace),
    }


def vae_from_json(obj: dict) -> VaeModel:
    """The VaeModel of a vae_to_json object, its weights and biases copied
    into one fresh flat vector. Each must have the shape that the decoder's
    widths give it in the layout, or DimensionMismatch names it."""
    enc, dec = obj["encoder"], obj["decoder"]
    stored = [(f"encoder layer {i}", lay, lay["bias"]) for i, lay in enumerate(enc["layers"])]
    stored += [("mu", enc["w_mu"], enc["b_mu"]), ("log-variance", enc["w_lv"], enc["b_lv"])]
    stored += [(f"decoder layer {i}", lay, lay["bias"]) for i, lay in enumerate(dec["layers"])]
    widths = stored_widths(dec)
    layout = _layers(widths)
    if len(stored) != len(layout):
        raise DimensionMismatch(f"{len(stored)} weights, where widths {widths} give {len(layout)}")
    params = np.empty(sum((a + 1) * b for a, b in layout))
    for (name, w_obj, b_obj), views in zip(stored, _pairs(params, widths)):
        values = matrix_from_json(w_obj), check_finite(np.asarray(b_obj, dtype=float), "bias")
        for what, value, view in zip(("weight", "bias"), values, views):
            if value.shape != view.shape or value.dtype != view.dtype:
                raise DimensionMismatch(f"{name} {what} is {value.dtype} {value.shape}, where "
                                        f"widths {widths} give {view.dtype} {view.shape}")
            view[...] = value
    return VaeModel(widths, params, list(obj.get("loss_trace", [])))


def save_vae(model: VaeModel, path: str, decoder_path: str | None = None) -> None:
    """Write the model as json.dumps(vae_to_json(model), default=np.ndarray.tolist)
    does, streamed by write_json with at most one chunk in memory; with
    decoder_path, also write the decoder there as save_network does, in the
    same pass, each decoder chunk encoded once and written to both files."""
    part = None if decoder_path is None else ("decoder", decoder_path)
    write_json(vae_to_json(model), path, part)


def load_vae(path: str) -> VaeModel:
    return load_json(path, vae_from_json)
