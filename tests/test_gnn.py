import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.errors import DimensionMismatch, DomainError
from gcs.gnn import (
    GenerativeNetwork,
    augment_biases,
    difference_network,
    forward,
    hidden,
    load_network,
    log_region_bound,
    network_from_json,
    network_to_json,
    objective_value_grad,
    orthant_bound,
    relu,
    save_network,
    sigmoid,
)
from gcs.sampling import derive_rng, sample_bernoulli, sample_fixed, apply
from gcs.transforms import UnitaryOperator, dct2_operator, explicit_operator


def random_network(widths, seed, biases=False):
    rng = derive_rng(seed)
    ws = [rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    bs = [rng.standard_normal(b) for b in widths[1:]] if biases else None
    return GenerativeNetwork(weights=ws, biases=bs)


def forward_oracle(g, z):
    """Straight-line re-evaluation, written independently of gnn.forward."""
    h = np.asarray(z, dtype=float)
    for i in range(len(g.weights)):
        h = g.weights[i].dot(h)
        if g.biases is not None:
            h = h + g.biases[i]
        if i != len(g.weights) - 1:
            h = np.where(h > 0, h, 0.0)
    return h


@pytest.mark.parametrize("biases", [False, True])
def test_forward_matches_oracle(biases):
    g = random_network([3, 6, 10], seed=0, biases=biases)
    rng = derive_rng(1)
    for _ in range(25):
        z = rng.standard_normal(3)
        np.testing.assert_allclose(forward(g, z), forward_oracle(g, z), atol=1e-12)


def test_forward_batched_agrees_with_single():
    g = random_network([2, 5, 7], seed=2)
    zs = derive_rng(3).standard_normal((2, 9))
    batched = forward(g, zs)
    for j in range(9):
        np.testing.assert_allclose(batched[:, j], forward(g, zs[:, j]), atol=1e-12)


@given(st.floats(0.0, 50.0, allow_nan=False), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_positive_homogeneity(c, seed):
    g = random_network([2, 4, 6], seed=11)
    z = np.random.default_rng(seed).standard_normal(2)
    np.testing.assert_allclose(forward(g, c * z), c * forward(g, z), atol=1e-8)


def test_network_validation():
    with pytest.raises(DimensionMismatch):
        GenerativeNetwork(weights=[])
    with pytest.raises(DimensionMismatch):
        GenerativeNetwork(weights=[np.ones((4, 1))])  # code dim < 2
    with pytest.raises(DimensionMismatch):
        # inner width below code dimension
        GenerativeNetwork(weights=[np.ones((2, 3)), np.ones((5, 2))])
    with pytest.raises(DimensionMismatch):
        GenerativeNetwork(weights=[np.ones((4, 2)), np.ones((5, 3))])  # chain broken
    ws = [np.ones((4, 2)), np.ones((8, 4))]
    with pytest.raises(DimensionMismatch, match="^need one bias per layer$"):
        GenerativeNetwork(weights=ws, biases=[np.zeros(4)])
    with pytest.raises(DimensionMismatch, match="^bias length must match layer width$"):
        GenerativeNetwork(weights=ws, biases=[np.zeros(4), np.zeros(7)])


def test_a_code_of_the_wrong_length_is_refused():
    g = random_network([4, 16, 64], seed=0)
    a = sample_fixed(dct2_operator(64), 16, seed=1)
    with pytest.raises(DimensionMismatch, match="^code dim 4, got 3$"):
        hidden(g, np.ones(3))
    with pytest.raises(DimensionMismatch, match=re.escape("latent must have shape (4,)")):
        objective_value_grad(g, a, np.zeros(16), np.ones((4, 1)))


def test_width_properties():
    g = random_network([4, 16, 64], seed=0)
    assert g.widths == [4, 16, 64]
    assert (g.code_dim, g.depth, g.ambient_dim) == (4, 2, 64)


def test_bias_augmentation_exact():
    g = random_network([3, 7, 9, 12], seed=5, biases=True)
    aug = augment_biases(g)
    assert aug.biases is None
    assert aug.code_dim == 4
    rng = derive_rng(6)
    for _ in range(100):
        z = rng.standard_normal(3)
        lhs = forward(g, z)
        rhs = forward(aug, np.concatenate([z, [1.0]]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_bias_augmentation_requires_biases():
    with pytest.raises(DomainError, match="network has no biases to augment"):
        augment_biases(random_network([2, 4, 6], seed=0))


def test_difference_network_exact():
    g = random_network([3, 8, 5], seed=7)
    gbar = difference_network(g)
    assert gbar.widths == [6, 16, 5]
    rng = derive_rng(8)
    for _ in range(100):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = forward(gbar, np.concatenate([x, y]))
        rhs = forward(g, x) - forward(g, y)
        scale = np.linalg.norm(forward(g, x)) + np.linalg.norm(forward(g, y)) + 1.0
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_difference_network_kills_diagonal():
    g = random_network([2, 4, 6], seed=9)
    gbar = difference_network(g)
    z = derive_rng(10).standard_normal(2)
    np.testing.assert_allclose(
        forward(gbar, np.concatenate([z, z])), np.zeros(6), atol=1e-12
    )


def test_difference_network_rejects_biased():
    with pytest.raises(DomainError, match="difference network requires no biases"):
        difference_network(random_network([2, 4, 6], seed=0, biases=True))


def test_log_region_bound_values():
    assert log_region_bound([3, 10]) == 0.0  # d = 1: a single cone
    val = log_region_bound([2, 4, 4, 8])
    assert val == pytest.approx(4 * math.log(4 * math.e))
    assert val == pytest.approx(9.545177444479562)


def test_log_region_bound_monotone_in_widths():
    assert log_region_bound([2, 8, 16]) > log_region_bound([2, 4, 16])
    with pytest.raises(DomainError):
        log_region_bound([4])


def test_log_region_bound_of_difference_network():
    # Doubling the widths turns k*sum(log(2e*k_i/k)) into 2k*sum(...) exactly.
    widths = [3, 9, 27, 81]
    doubled = [2 * w for w in widths[:-1]] + [widths[-1]]
    k = widths[0]
    expected = 2 * k * sum(math.log(2 * math.e * ki / k) for ki in widths[1:-1])
    assert log_region_bound(doubled) == pytest.approx(expected)


def test_orthant_bound_values():
    assert orthant_bound(4, 2) == 24
    assert orthant_bound(5, 5) == 2**5
    assert orthant_bound(3, 1) == 6
    assert orthant_bound(400, 200) == 2**200 * math.comb(400, 200)  # big ints exact
    with pytest.raises(DomainError):
        orthant_bound(3, 4)
    with pytest.raises(DomainError):
        orthant_bound(3, 0)


def test_line_orthant_crossings_below_bound():
    # A generic line in R^3 meets exactly 2 open orthants; the bound is 6.
    rng = derive_rng(12)
    v = rng.standard_normal(3)
    ts = np.linspace(-5, 5, 10001)
    pts = np.outer(ts, v)
    signs = {tuple(s) for s in np.sign(pts).astype(int) if np.all(s != 0)}
    assert len(signs) == 2 <= orthant_bound(3, 1)


def _away_from_kinks(g, z, tol=1e-3):
    h = np.asarray(z, dtype=float)
    for i, w in enumerate(g.weights[:-1]):
        h = w @ h
        if g.biases is not None:
            h = h + g.biases[i]
        if np.min(np.abs(h)) < tol:
            return False
        h = relu(h)
    return True


def test_gradient_matches_finite_differences():
    u = dct2_operator(16)
    g = random_network([3, 5, 16], seed=20, biases=True)
    a = sample_fixed(u, 8, seed=21)
    rng = derive_rng(22)
    checked = 0
    while checked < 10:
        z = rng.standard_normal(3)
        if not _away_from_kinks(g, z):
            continue
        b = apply(a, forward(g, rng.standard_normal(3)))
        val, grad = objective_value_grad(g, a, b, z)
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            vp, _ = objective_value_grad(g, a, b, z + e)
            vm, _ = objective_value_grad(g, a, b, z - e)
            fd[i] = (vp - vm) / (2 * h)
        denom = max(np.linalg.norm(grad), 1e-12)
        assert np.linalg.norm(grad - fd) / denom <= 1e-5
        checked += 1


def test_gradient_zero_at_global_minimum():
    g = random_network([2, 4, 8], seed=30)
    u = dct2_operator(8)
    a = sample_fixed(u, 8, seed=31)
    z = derive_rng(32).standard_normal(2)
    b = apply(a, forward(g, z))
    val, grad = objective_value_grad(g, a, b, z)
    assert val == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-12)


def complex_objective_value_grad(g, a, b, z):
    """The objective as computed while a complex U measured in complex
    numbers: r = sqrt(n/m) U_J G(z) - b for a complex b, the value
    0.5*Re(r^* r) and the gradient Re(A^* r), backpropagated."""
    def layer(i, h):
        h = g.weights[i] @ h
        return h if g.biases is None else h + g.biases[i]

    pre = [layer(0, z)]
    for i in range(1, g.depth):
        pre.append(layer(i, relu(pre[-1])))
    u_j = a.base.rows(a.indices)
    r = a.scale * (u_j @ pre[-1]) - b
    value = 0.5 * float(np.real(np.vdot(r, r)))
    s = np.real(a.scale * (u_j.conj().T @ r))
    for i in range(g.depth - 1, -1, -1):
        s = g.weights[i].T @ s
        if i > 0:
            s = s * (pre[i - 1] > 0)
    return value, s


@pytest.mark.parametrize("unitary", ["dft-16", "dft-256", "explicit-12"])
def test_real_objective_matches_the_complex_one(unitary):
    # A complex U's rows enter as [Re U_J; Im U_J] and b as [Re b; Im b]:
    # the same objective, value and gradient, as the complex residual's.
    kind, n = unitary.split("-")
    n = int(n)
    rng = derive_rng(41)
    if kind == "dft":
        u = UnitaryOperator("dft", n)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = explicit_operator(q)
    g = random_network([3, 8, n], seed=42, biases=True)
    checked = 0
    for m, sampler in ((n // 2, sample_fixed), (n // 3, sample_bernoulli)):
        a = sampler(u, m, seed=43)
        u_j = a.base.rows(a.indices)
        # Noise in both parts, so that Im b enters the objective.
        noise = rng.standard_normal(u_j.shape[0]) + 1j * rng.standard_normal(u_j.shape[0])
        b = a.scale * (u_j @ forward(g, rng.standard_normal(3))) + 0.1 * noise
        for _ in range(3):
            z = rng.standard_normal(3)
            want_value, want_grad = complex_objective_value_grad(g, a, b, z)
            value, grad = objective_value_grad(g, a, np.concatenate([b.real, b.imag]), z)
            assert abs(value - want_value) <= 1e-12 * want_value
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
            checked += want_value > 0 and np.linalg.norm(want_grad) > 0
    assert checked == 6


def test_relu_and_sigmoid_basics():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert sigmoid(np.array([0.0]))[0] == 0.5
    # numerically stable at extreme inputs
    assert sigmoid(np.array([-1000.0]))[0] == 0.0
    assert sigmoid(np.array([1000.0]))[0] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigmoid_matches_the_split_form():
    # The split by sign: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
    # below, so that neither exp overflows. sigmoid gives its bits, NaN aside.
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, -36.7, 745.2,
                  -745.2, 1e308, -1e308, *(30 * derive_rng(0).standard_normal(200))])
    pos = x >= 0
    split = np.empty_like(x)
    split[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    split[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    out = sigmoid(x)
    nan = np.isnan(x)
    np.testing.assert_array_equal(np.isnan(out), nan)
    np.testing.assert_array_equal(out[~nan].view(np.int64), split[~nan].view(np.int64))


@pytest.mark.parametrize("biases", [False, True])
def test_network_json_roundtrip(biases, tmp_path):
    g = random_network([2, 5, 7], seed=40, biases=biases)
    obj = network_to_json(g)
    assert (obj["widths"], obj["final_activation"]) == ([2, 5, 7], "none")
    g2 = network_from_json(obj)
    for w1, w2 in zip(g.weights, g2.weights):
        np.testing.assert_array_equal(w1, w2)
    if biases:
        for b1, b2 in zip(g.biases, g2.biases):
            np.testing.assert_array_equal(b1, b2)
    path = tmp_path / "net.json"
    save_network(g, str(path))
    g3 = load_network(str(path))
    z = derive_rng(41).standard_normal(2)
    np.testing.assert_array_equal(forward(g, z), forward(g3, z))


@pytest.mark.parametrize("edit, error, message", [
    ({"widths": [9, 99]}, DimensionMismatch, "widths [9, 99], where the layers give [2, 5, 7]"),
    ({"widths": [1, 7]}, DimensionMismatch, "code dimension must be >= 2"),
    ({"final_activation": "sigmoid"}, DomainError, "final activation 'sigmoid': every network's "
                                                    "final layer is linear"),
], ids=["widths-edited", "widths-bad", "sigmoid"])
def test_network_from_json_checks_widths_and_final_activation(edit, error, message):
    obj = {**network_to_json(random_network([2, 5, 7], seed=42)), **edit}
    with pytest.raises(error, match=re.escape(message)):
        network_from_json(obj)


def test_network_from_json_reads_a_file_without_final_activation():
    g = random_network([2, 5, 7], seed=43, biases=True)
    obj = network_to_json(g)
    del obj["final_activation"]
    assert network_from_json(obj).widths == [2, 5, 7]
