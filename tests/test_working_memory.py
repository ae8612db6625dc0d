"""Blocked kernels against the whole-array code they replaced.

`transforms._dct2` runs its FFT in column blocks, `coherence.regularizer`
works in row blocks with one n x k gradient buffer, and training runs the
regularizer after the ELBO pass. The oracles below are the whole-array
versions; every result must match them bit for bit, compared by `tobytes()`
so that the sign of a zero counts.
"""

import tracemalloc

import numpy as np
import pytest

from gcs import coherence, training, transforms
from gcs.coherence import regularizer
from gcs.sampling import derive_rng
from gcs.training import TrainConfig, synth_dataset, train_vae
from gcs.transforms import DCT_BLOCK, UnitaryOperator, dct2_operator, explicit_operator


def oracle_dct2(x):
    """The whole-array FFT DCT-II."""
    n = x.shape[0]
    v = np.concatenate([x[0::2], x[1::2][::-1]])
    tw = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    a = np.fft.rfft(v, axis=0)
    del v
    a *= tw.reshape((-1,) + (1,) * (x.ndim - 1))
    y = np.empty(x.shape)
    y[: n // 2 + 1] = a.real
    y[n // 2 + 1:] = -a.imag[1:(n + 1) // 2][::-1]
    y *= np.sqrt(2.0 / n)
    y[0] *= np.sqrt(0.5)
    return y


def oracle_regularizer(w, u, lam):
    """The whole-array regularizer: the gradient accumulates from zeros, the
    rank-one term first."""
    w = np.asarray(w, dtype=float)
    dw = u.apply(w)
    sq = np.abs(dw)
    sq **= 2
    row_norms = np.sqrt(np.sum(sq, axis=1))
    del sq
    i_star = int(np.argmax(row_norms))
    value = float(row_norms[i_star])
    grad = np.zeros_like(w)
    if row_norms[i_star] > 0:
        tmp = np.real(np.outer(u.rows(i_star), np.conj(dw[i_star])))
        tmp /= row_norms[i_star]
        grad += tmp
        del tmp
    del dw
    k = w.shape[1]
    e = w.T @ w - np.eye(k)
    fro = float(np.linalg.norm(e))
    value += lam * fro
    if fro > 1e-12:
        tmp = w @ e
        tmp *= 2.0 * lam
        tmp /= fro
        grad += tmp
    return value, grad


# k below, equal to, above and not a multiple of the DCT's column block.
WIDTHS = [1, DCT_BLOCK - 1, DCT_BLOCK, DCT_BLOCK + 1, 2 * DCT_BLOCK, 2 * DCT_BLOCK + 30]
# The identity's rows hold exact zeros, so with lam = 0 both gradient terms
# have entries of -0, whose sum must come out +0 as it did from zeros.
OPERATORS = [("dct", 64), ("dct", 256), ("dct", 784), ("dft", 256), ("identity", 64)]


def operator(kind, n):
    return explicit_operator(np.eye(n)) if kind == "identity" else UnitaryOperator(kind, n)


@pytest.mark.parametrize("n", [64, 256, 784])
@pytest.mark.parametrize("k", [None, *WIDTHS])
def test_dct2_matches_whole_array_oracle(n, k):
    x = derive_rng(n + (k or 0)).standard_normal((n,) if k is None else (n, k))
    assert transforms._dct2(x).tobytes() == oracle_dct2(x).tobytes()
    # Strided columns, as the real and imaginary parts of a complex input.
    z = x + 1j * x[::-1]
    for part in (z.real, z.imag):
        assert transforms._dct2(part).tobytes() == oracle_dct2(part).tobytes()


def assert_same(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("rows", ["default", "n"])
def test_regularizer_matches_whole_array_oracle(monkeypatch, kind, n, k, lam, rows):
    # The default row block is below 256 and 784 and above 64, 784 is not a
    # multiple of it, and rows = n makes one block of exactly n rows.
    if rows == "n":
        monkeypatch.setattr(coherence, "REG_ROWS", n)
    u = operator(kind, n)
    w = derive_rng(3 * n + k).standard_normal((n, k)) / np.sqrt(n)
    assert_same(regularizer(w, u, lam), oracle_regularizer(w, u, lam))


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("which", ["orthonormal", "zero"])
def test_regularizer_matches_oracle_at_edge_inputs(kind, n, lam, which):
    k = DCT_BLOCK + 1
    if which == "orthonormal":
        w = np.linalg.qr(derive_rng(n).standard_normal((n, k)))[0]
        assert np.linalg.norm(w.T @ w - np.eye(k)) <= 1e-12  # no Frobenius gradient
    else:
        w = np.zeros((n, k))  # no rank-one term either
    assert_same(regularizer(w, operator(kind, n), lam), oracle_regularizer(w, operator(kind, n), lam))


def oracle_train_vae(data, widths, config, u, seed):
    """train_vae's loop with the regularizer applied as it was: the oracle's
    gradient scaled into a new array and added after the ELBO pass."""
    rng = derive_rng(seed)
    params = training._init_params(widths, rng)
    grads, m, v = (np.zeros_like(params) for _ in range(3))
    views, grad_views = training._unpack(params, widths), training._unpack(grads, widths)
    trace, t = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(len(data))
        losses = []
        for start in range(0, len(data), config.batch_size):
            x = data[order[start:start + config.batch_size]]
            eps_noise = rng.standard_normal((x.shape[0], widths[0]))
            loss = training._vae_loss_and_grads(views, grad_views, x, eps_noise, None)
            (w_last, _), (g_last, _) = views[2][-1], grad_views[2][-1]
            rho, rho_grad = oracle_regularizer(w_last, u, config.lam)
            loss += config.reg_weight * rho
            g_last += config.reg_weight * rho_grad
            t += 1
            training.adam_step(params, grads, m, v, t, config.learning_rate, training.adam_table(t))
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, trace


def test_regularized_training_matches_oracle_at_n256():
    widths = [4, DCT_BLOCK + 10, 256]
    data = synth_dataset(256, 4, 96, seed=2)
    config, u = TrainConfig(epochs=2, batch_size=32, reg_weight=10.0), dct2_operator(256)
    model = train_vae(data, widths, config, u, 5)
    params, trace = oracle_train_vae(data, widths, config, u, 5)
    assert model.params.tobytes() == params.tobytes()
    assert model.loss_trace == trace


def test_regularizer_peak_memory_at_784x200():
    # Whole-array products peaked at 3.9 MB here: D W, its square, a zeroed
    # gradient and a rank-one term, each 1.25 MB. Row blocks and one gradient
    # buffer leave the FFT's output and its column block temporaries.
    w = derive_rng(15).standard_normal((784, 200)) / np.sqrt(784)
    u = dct2_operator(784)
    tracemalloc.start()
    try:
        regularizer(w, u, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6
