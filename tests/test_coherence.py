import math

import numpy as np
import pytest

from gcs.coherence import (
    chord_coherence_mc,
    coherence_lower_bound,
    coherence_report,
    network_coherence_heuristic,
    regularizer,
    sample_complexity,
    subspace_coherence,
    typical_coherence_bound,
)
from gcs.errors import DimensionMismatch, DomainError, GcsError
from gcs.gnn import GenerativeNetwork
from gcs.sampling import derive_rng
from gcs.transforms import UnitaryOperator, dct2_operator, explicit_operator


def random_orthonormal(n, k, seed):
    return np.linalg.qr(derive_rng(seed).standard_normal((n, k)))[0]


def test_subspace_coherence_floor():
    n = 64
    for k in (1, 4, 16):
        floor = coherence_lower_bound(k, n)
        for seed in range(25):
            q = random_orthonormal(n, k, seed)
            for u in (UnitaryOperator("dft", n), dct2_operator(n), explicit_operator(np.eye(n))):
                assert subspace_coherence(u, q) >= floor - 1e-12


def test_coordinate_subspace_achieves_floor_under_dft():
    # The first k coordinates map to the first k DFT columns, whose rows all
    # have norm exactly sqrt(k/n): the lower bound is tight.
    n = 64
    u = UnitaryOperator("dft", n)
    for k in (1, 4, 16):
        q = np.eye(n)[:, :k]
        assert subspace_coherence(u, q) == pytest.approx(math.sqrt(k / n), abs=1e-10)


def test_subspace_coherence_identity_spike():
    # A coordinate axis has coherence 1 under the identity.
    n = 16
    q = np.zeros((n, 1))
    q[3, 0] = 1.0
    u = explicit_operator(np.eye(n))
    # subspace_coherence requires k >= 1 orthonormal columns; a single spike
    # is as coherent as it gets.
    assert subspace_coherence(u, q) == pytest.approx(1.0)


def test_subspace_coherence_validation():
    u = dct2_operator(8)
    with pytest.raises(DomainError, match="columns of Q are not orthonormal to 1e-8"):
        subspace_coherence(u, np.ones((8, 2)))
    with pytest.raises(DimensionMismatch):
        subspace_coherence(u, random_orthonormal(9, 2, 0))
    with pytest.raises(DimensionMismatch, match="^Q is 1-d, not a matrix$"):
        subspace_coherence(u, np.eye(8)[0])


def test_heuristic_equals_subspace_coherence_of_final_range():
    # For a network whose final layer has orthonormal columns, the heuristic
    # reduces to the exact subspace coherence of that range.
    n, k1 = 32, 8
    q = random_orthonormal(n, k1, 3)
    w1 = derive_rng(4).standard_normal((k1, 4))
    g = GenerativeNetwork(weights=[w1, q])
    u = dct2_operator(n)
    assert network_coherence_heuristic(g, u) == pytest.approx(
        subspace_coherence(u, q), abs=1e-12
    )


def test_heuristic_invariant_to_right_multiplication():
    # Q1 spans range(W); scaling or mixing columns of W leaves it unchanged.
    n, k1 = 24, 5
    w = derive_rng(5).standard_normal((n, k1))
    mix = derive_rng(6).standard_normal((k1, k1)) + 3 * np.eye(k1)
    w1 = derive_rng(7).standard_normal((k1, 3))
    u = dct2_operator(n)
    g1 = GenerativeNetwork(weights=[w1, w])
    g2 = GenerativeNetwork(weights=[mix.T @ w1, w @ mix])
    a1 = network_coherence_heuristic(g1, u)
    a2 = network_coherence_heuristic(g2, u)
    assert a1 == pytest.approx(a2, abs=1e-8)


def test_mc_chord_estimate_below_heuristic():
    # The heuristic bounds the coherence of the chord set for linear-final
    # networks, so Monte-Carlo chords can never beat it.
    g = GenerativeNetwork(
        weights=[
            derive_rng(8).standard_normal((6, 3)),
            derive_rng(9).standard_normal((16, 6)),
        ]
    )
    u = dct2_operator(16)
    heuristic = network_coherence_heuristic(g, u)
    mc = chord_coherence_mc(g, u, samples=20000, seed=10)
    assert 0.0 < mc <= heuristic + 1e-12


def test_mc_chord_estimate_validation():
    g = GenerativeNetwork(weights=[derive_rng(0).standard_normal((8, 2))])
    with pytest.raises(DomainError):
        chord_coherence_mc(g, dct2_operator(8), samples=0, seed=0)
    for samples in (2.5, "10", True):
        with pytest.raises(DomainError, match=f"samples must be an integer, got {samples!r}"):
            chord_coherence_mc(g, dct2_operator(8), samples=samples, seed=0)
    with pytest.raises(DimensionMismatch):
        chord_coherence_mc(g, dct2_operator(9), samples=10, seed=0)
    # Zero first-layer weights: every chord is 0, so none is kept.
    flat = GenerativeNetwork(weights=[np.zeros((4, 2)), derive_rng(1).standard_normal((8, 4))])
    with pytest.raises(GcsError, match="^all sampled chords were below norm tolerance$"):
        chord_coherence_mc(flat, dct2_operator(8), samples=10, seed=0)


def test_lower_bound_values():
    assert coherence_lower_bound(4, 64) == 0.25
    assert coherence_lower_bound(64, 64) == 1.0
    with pytest.raises(DomainError):
        coherence_lower_bound(0, 4)
    with pytest.raises(DomainError):
        coherence_lower_bound(5, 4)


def test_typical_bound_formula():
    k, n = 4, 256
    widths = [4, 16, 32, 256]
    log_sum = math.log(2 * math.e * 16 / 4) + math.log(2 * math.e * 32 / 4)
    expected = (
        math.sqrt(k / n)
        + math.sqrt(math.log(n) / n)
        + math.sqrt(k / n * log_sum)
        + 2.0 / math.sqrt(n)
    )
    assert typical_coherence_bound(widths, gamma=2.0) == pytest.approx(expected)
    with pytest.raises(DomainError, match="^gamma must be >= 0, got -1.0$"):
        typical_coherence_bound(widths, gamma=-1.0)


def test_regularizer_rejects_a_w_that_is_not_a_matrix():
    with pytest.raises(DimensionMismatch, match="^W is 1-d, not a matrix$"):
        regularizer(np.ones(8), dct2_operator(8), lam=1.0)


def test_regularizer_value():
    n, k = 12, 3
    u = dct2_operator(n)
    w = derive_rng(11).standard_normal((n, k))
    val, _ = regularizer(w, u, lam=1.0)
    dw = u.matrix @ w
    expected = float(np.max(np.sqrt(np.sum(dw**2, axis=1))))
    expected += float(np.linalg.norm(w.T @ w - np.eye(k)))
    assert val == pytest.approx(expected, rel=1e-12)


def test_regularizer_at_784_matches_dense_formula():
    # At n = 784 the regularizer's D W runs as an FFT DCT-II.
    n, k, lam = 784, 20, 0.5
    u = dct2_operator(n)
    w = derive_rng(14).standard_normal((n, k)) / np.sqrt(n)
    val, grad = regularizer(w, u, lam=lam)
    dw = u.matrix @ w
    row_norms = np.sqrt(np.sum(dw**2, axis=1))
    i_star = int(np.argmax(row_norms))
    e = w.T @ w - np.eye(k)
    fro = float(np.linalg.norm(e))
    assert val == pytest.approx(row_norms[i_star] + lam * fro, rel=1e-12)
    want = np.outer(u.matrix[i_star], dw[i_star]) / row_norms[i_star] + 2.0 * lam * (w @ e) / fro
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_regularizer_zero_at_orthonormal_spread():
    # Orthonormal W kills the Frobenius term; only the 2->inf norm remains.
    n, k = 16, 4
    q = random_orthonormal(n, k, 12)
    u = dct2_operator(n)
    val_l0, _ = regularizer(q, u, lam=0.0)
    val_l5, _ = regularizer(q, u, lam=5.0)
    assert val_l0 == pytest.approx(val_l5, abs=1e-9)


def test_regularizer_subgradient_finite_difference():
    # Away from row-norm ties the subgradient is a plain gradient.
    n, k = 10, 3
    u = dct2_operator(n)
    rng = derive_rng(13)
    w = rng.standard_normal((n, k))
    val, grad = regularizer(w, u, lam=1.0)
    h = 1e-6
    for _ in range(10):
        direction = rng.standard_normal((n, k))
        direction /= np.linalg.norm(direction)
        vp, _ = regularizer(w + h * direction, u, lam=1.0)
        vm, _ = regularizer(w - h * direction, u, lam=1.0)
        fd = (vp - vm) / (2 * h)
        assert fd == pytest.approx(float(np.sum(grad * direction)), abs=1e-5)


def test_regularizer_validation():
    u = dct2_operator(8)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            regularizer(np.ones((8, 2)), u, lam=lam)
    with pytest.raises(DimensionMismatch):
        regularizer(np.ones((7, 2)), u, lam=1.0)


def test_sample_complexity_formula():
    alpha, n, k, eps, delta = 0.3, 128, 4, 0.01, 0.5  # n and k as the widths give them
    widths = [4, 16, 128]
    log_sum = math.log(2 * math.e * 16 / 4)
    rip = sample_complexity(alpha, widths, eps, delta, kind="RIP")
    assert rip == pytest.approx(
        (alpha**2 * n / delta**2) * (k * log_sum + math.log(2 * k / eps))
    )
    diff = sample_complexity(alpha, widths, eps, delta, kind="DiffRIP")
    assert diff == pytest.approx(
        (alpha**2 * n / delta**2) * (2 * k * log_sum + math.log(4 * k / eps))
    )
    # GCS pins delta = 1/3 regardless of the argument.
    gcs1 = sample_complexity(alpha, widths, eps, 0.5, kind="GCS")
    gcs2 = sample_complexity(alpha, widths, eps, 0.01, kind="GCS")
    assert gcs1 == gcs2 == pytest.approx(
        (alpha**2 * n * 9.0) * (2 * k * log_sum + math.log(4 * k / eps))
    )


def test_sample_complexity_validation():
    with pytest.raises(DomainError):
        sample_complexity(0.3, [4, 8, 64], 0.1, 0.5, kind="nope")
    with pytest.raises(DomainError, match="^alpha must be positive, got -0.1$"):
        sample_complexity(-0.1, [4, 8, 64], 0.1, 0.5)


def test_coherence_report_assembly():
    g = GenerativeNetwork(
        weights=[
            derive_rng(14).standard_normal((8, 3)),
            derive_rng(15).standard_normal((32, 8)),
        ]
    )
    u = dct2_operator(32)
    rep = coherence_report(g, u, mc_samples=2000, seed=16)
    assert rep["lower_bound"] == pytest.approx(math.sqrt(3 / 32))
    assert rep["alpha_mc"] <= rep["alpha_heuristic"] + 1e-12
    assert rep["typical_bound"] > rep["lower_bound"]
    assert set(rep) == {"alpha_heuristic", "alpha_mc", "mc_samples", "lower_bound",
                        "typical_bound", "seed", "constant_c"}
