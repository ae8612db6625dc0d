import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.coherence import chord_coherence_mc
from gcs.errors import DimensionMismatch, DomainError
from gcs.gnn import GenerativeNetwork
from gcs.harness import RipConfig, SubspaceRipConfig, run_rip_check, run_subspace_rip
from gcs.sampling import (
    apply,
    apply_adjoint,
    check_m,
    cramer_chernoff_tail,
    derive_rng,
    isotropy_error,
    sample_bernoulli,
    sample_fixed,
    sampler_for,
    spawn_seed,
)
from gcs.training import TrainConfig, synth_dataset, train_vae
from gcs.transforms import dct2_operator, dft_operator


_NET = GenerativeNetwork(weights=[np.ones((8, 2)), np.ones((16, 8))])
_U = dct2_operator(16)
# Each library entry that takes a root seed, called with valid arguments
# besides it.
SEEDED = {
    "chord_coherence_mc": lambda seed: chord_coherence_mc(_NET, _U, 4, seed),
    "run_rip_check": lambda seed: run_rip_check(_NET, RipConfig([8], 0.5, 4, 1), _U, seed),
    "run_subspace_rip": lambda seed: run_subspace_rip(SubspaceRipConfig(16, 2, [8], 0.5, 1),
                                                      _U, seed),
    "synth_dataset": lambda seed: synth_dataset(16, 2, 4, seed),
    "sample_fixed": lambda seed: sample_fixed(_U, 8, seed),
    "sample_bernoulli": lambda seed: sample_bernoulli(_U, 8, seed),
    "train_vae": lambda seed: train_vae(np.zeros((4, 16)), [2, 8, 16], TrainConfig(epochs=1),
                                        None, seed),
}


@pytest.mark.parametrize("seed, rule", [(-1, ">= 0"), (1.5, "an integer")])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_every_seeded_entry_rejects_a_bad_root_seed(entry, seed, rule):
    # derive_rng checks the root seed that every stream starts from, so a
    # negative seed does not reach numpy's ValueError and 1.5 does not run
    # as seed 1.
    with pytest.raises(DomainError, match=f"^seed must be {rule}, got {seed}$"):
        SEEDED[entry](seed)


def test_derive_rng_deterministic_and_split():
    a = derive_rng(5, 1, 2).standard_normal(4)
    b = derive_rng(5, 1, 2).standard_normal(4)
    c = derive_rng(5, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spawn_seed_range_and_determinism():
    s = spawn_seed(0, 7)
    assert 0 <= s < 2**63
    assert s == spawn_seed(0, 7)
    assert s != spawn_seed(0, 8)


def test_fixed_model_shape_and_scale():
    u = dct2_operator(16)
    a = sample_fixed(u, 4, seed=3)
    assert a.num_rows == 4
    assert a.scale == pytest.approx(2.0)
    assert np.all(np.diff(a.indices) > 0)  # sorted, unique


def test_fixed_full_m_preserves_norm():
    u = dct2_operator(16)
    a = sample_fixed(u, 16, seed=0)
    x = np.random.default_rng(0).standard_normal(16)
    assert np.linalg.norm(apply(a, x)) == pytest.approx(np.linalg.norm(x), abs=1e-10)


def test_apply_matches_manual_row_selection():
    # A complex row gives two real measurements: A x is sqrt(n/m) times the
    # real parts of the row products, then their imaginary parts.
    u = dft_operator(12)
    a = sample_bernoulli(u, 6, seed=9)
    x = np.random.default_rng(1).standard_normal(12)
    products = np.array([u.matrix[j] @ x for j in a.indices])
    manual = math.sqrt(12 / 6) * np.concatenate([products.real, products.imag])
    assert a.num_rows == 2 * a.indices.size
    np.testing.assert_allclose(apply(a, x), manual, atol=1e-12)
    with pytest.raises(DomainError, match="^a measured signal is real$"):
        apply(a, x + 0j)


def test_adjoint_is_conjugate_transpose():
    u = dft_operator(10)
    a = sample_fixed(u, 5, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    y = rng.standard_normal(a.num_rows)
    # A is real, so its adjoint is its transpose: <Ax, y> == <x, A^T y>.
    lhs = apply(a, x) @ y
    rhs = x @ apply_adjoint(a, y)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bernoulli_cardinality_moments():
    # |J| ~ Binomial(n, m/n): check mean and variance against a Monte-Carlo run.
    u = dct2_operator(32)
    sizes = [sample_bernoulli(u, 8, seed=spawn_seed(1, t)).num_rows for t in range(3000)]
    mean, var = np.mean(sizes), np.var(sizes)
    p = 8 / 32
    assert mean == pytest.approx(8.0, abs=4 * math.sqrt(32 * p * (1 - p) / 3000))
    assert var == pytest.approx(32 * p * (1 - p), rel=0.15)


def test_fixed_model_inclusion_frequencies():
    # Every index is included with probability m/n under the permutation model.
    u = dct2_operator(16)
    counts = np.zeros(16)
    trials = 2000
    for t in range(trials):
        counts[sample_fixed(u, 4, seed=spawn_seed(2, t)).indices] += 1
    freq = counts / trials
    se = math.sqrt(0.25 * 0.75 / trials)
    assert np.all(np.abs(freq - 0.25) < 5 * se)


def test_m_validation():
    u = dct2_operator(8)
    with pytest.raises(DomainError, match="need 2 <= m <= n for bernoulli sampling, got m=1, n=8"):
        sample_bernoulli(u, 1, seed=0)
    with pytest.raises(DomainError, match="need 2 <= m <= n for bernoulli sampling, got m=9, n=8"):
        sample_bernoulli(u, 9, seed=0)
    with pytest.raises(DomainError, match="need 1 <= m <= n for fixed sampling, got m=0, n=8"):
        sample_fixed(u, 0, seed=0)
    with pytest.raises(DimensionMismatch):
        apply(sample_fixed(u, 4, seed=0), np.zeros(7))


def test_check_m_and_sampler_for():
    check_m("fixed", 1, 8)
    check_m("bernoulli", 2, 8)
    check_m("bernoulli", 8, 8)
    for model, m in [("fixed", 0), ("fixed", 9), ("bernoulli", 1), ("bernoulli", 9)]:
        with pytest.raises(DomainError, match=f"for {model} sampling, got m={m}, n=8"):
            check_m(model, m, 8)
    assert sampler_for("fixed") is sample_fixed
    assert sampler_for("bernoulli") is sample_bernoulli
    # A typo must not select the other sampler.
    with pytest.raises(DomainError):
        sampler_for("fxied")
    with pytest.raises(DomainError):
        check_m("fxied", 4, 8)
    with pytest.raises(DomainError, match="unknown sampling model"):
        check_m(["fixed"], 4, 8)


def test_isotropy_full_sampling_exact_zero():
    # 49 * (1/49) rounds below 1, so the scaling must not go through 1/trials.
    for trials in (3, 49):
        assert isotropy_error(dct2_operator(8), 8, trials=trials, seed=0) == 0.0


def test_isotropy_converges():
    assert isotropy_error(dct2_operator(8), 4, trials=10_000, seed=0) <= 0.5


def test_isotropy_single_trial_nonzero():
    assert isotropy_error(dft_operator(8), 4, trials=1, seed=1) > 0.0
    with pytest.raises(DomainError):
        isotropy_error(dft_operator(8), 4, trials=0, seed=0)
    with pytest.raises(DomainError, match="trials must be an integer, got 2.5"):
        isotropy_error(dft_operator(8), 4, trials=2.5, seed=0)
    for m in (0, 1, 9):
        with pytest.raises(DomainError, match=f"got m={m}, n=8"):
            isotropy_error(dft_operator(8), m, trials=2, seed=0)


def test_isotropy_error_matches_dense_oracle():
    # Recompute the mean Gram by materializing each A explicitly.
    u = dft_operator(6)
    m, trials, seed = 3, 50, 4
    acc = np.zeros((6, 6), dtype=complex)
    for t in range(trials):
        mask = derive_rng(seed, t).random(6) < m / 6
        rows = u.matrix[np.flatnonzero(mask)]
        a_mat = math.sqrt(6 / m) * rows
        acc += a_mat.conj().T @ a_mat
    expected = np.linalg.norm(acc / trials - np.eye(6))
    assert isotropy_error(u, m, trials, seed) == pytest.approx(expected, abs=1e-12)


def test_isotropy_error_builds_no_dense_matrix():
    # Past FFT_MIN_N the DFT holds no matrix, and isotropy_error reads none.
    u = dft_operator(4096)
    assert isotropy_error(u, 4096, trials=2, seed=0) == 0.0
    assert isotropy_error(u, 1024, trials=3, seed=5) > 0.0
    assert "matrix" not in u.__dict__


def test_cramer_chernoff_boundary_and_monotonicity():
    # t = R sits at the boundary of informativeness: exponent 0, bound 1.
    assert cramer_chernoff_tail(2.0, m=10, r=2.0) == 1.0
    vals = [cramer_chernoff_tail(t, m=10, r=1.0) for t in (1.5, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_cramer_chernoff_closed_form():
    t, m, r = 2.0, 8, 1.0
    u = t / r
    assert cramer_chernoff_tail(t, m, r) == pytest.approx(
        math.exp(-m * (u * math.log(u) - u + 1.0))
    )


def test_cramer_chernoff_domain():
    with pytest.raises(DomainError):
        cramer_chernoff_tail(1.0, 4, 1.0)
    with pytest.raises(DomainError):
        cramer_chernoff_tail(2.0, 4, 0.0)


@given(st.integers(0, 1000), st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_apply_linearity(seed, n):
    u = dct2_operator(n)
    a = sample_fixed(u, max(1, n // 2), seed=seed)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    np.testing.assert_allclose(
        apply(a, 2.0 * x - y), 2.0 * apply(a, x) - apply(a, y), atol=1e-10
    )
