import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.errors import DimensionMismatch, DomainError, GcsError, ZeroSignal
from gcs.gnn import GenerativeNetwork, forward, objective_value_grad
from gcs.recovery import (
    SUCCESS_RRE,
    BoundAudit,
    RecoveryConfig,
    RecoveryResult,
    recover,
    recover_batch,
    recovery_bound_audit,
    rre,
)
from gcs.sampling import apply, derive_rng, sample_bernoulli, sample_fixed, spawn_seed
from gcs.transforms import dct2_operator, dft_operator


def seeded_network(widths, seed):
    rng = derive_rng(seed)
    return GenerativeNetwork(
        weights=[rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    )


def test_rre_definition():
    x0 = np.array([3.0, 4.0])
    assert rre(x0, x0) == 0.0
    assert rre(x0, np.zeros(2)) == 1.0
    assert rre(x0, np.array([3.0, 5.0])) == pytest.approx(0.2)


def test_rre_errors():
    with pytest.raises(ZeroSignal):
        rre(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        rre(np.ones(3), np.ones(4))


def test_rre_scale_invariance():
    rng = derive_rng(0)
    x0, xh = rng.standard_normal(10), rng.standard_normal(10)
    assert rre(7.0 * x0, 7.0 * xh) == pytest.approx(rre(x0, xh))


def test_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(restarts=0)


def test_full_measurement_in_range_recovery():
    # m = n: the objective has no null space beyond the network's, and Adam
    # lands on the target to well below the success threshold.
    g = seeded_network([4, 16, 32], seed=2)
    u = dct2_operator(32)
    a = sample_fixed(u, 32, seed=2)
    z0 = derive_rng(11, 0).standard_normal(4)
    x0 = forward(g, z0)
    b = apply(a, x0)
    res = recover(g, a, b, RecoveryConfig(seed=4), x0=x0)
    assert res.rre is not None and res.rre <= SUCCESS_RRE
    assert res.termination in ("grad_tol", "max_iters")
    np.testing.assert_allclose(res.x_hat, forward(g, res.z_hat))


def test_recover_measurement_length_check():
    g = seeded_network([3, 6, 16], seed=5)
    a = sample_fixed(dct2_operator(16), 8, seed=6)
    with pytest.raises(DimensionMismatch):
        recover(g, a, np.zeros(9))


def test_restarts_keep_best_residual():
    g = seeded_network([3, 6, 16], seed=7)
    u = dct2_operator(16)
    a = sample_fixed(u, 10, seed=8)
    b = apply(a, forward(g, derive_rng(9).standard_normal(3)))
    single = recover(g, a, b, RecoveryConfig(restarts=1, seed=10, max_iters=500))
    multi = recover(g, a, b, RecoveryConfig(restarts=5, seed=10, max_iters=500))
    assert multi.residual <= single.residual + 1e-12
    assert multi.failed_restarts == 0


def test_result_to_json_roundtrippable():
    res = RecoveryResult(
        z_hat=np.array([1.0, 2.0]),
        x_hat=np.array([0.5]),
        rre=0.1,
        iterations=12,
        termination="grad_tol",
        residual=1e-9,
    )
    d = res.to_json()
    assert d["z_hat"] == [1.0, 2.0] and d["iterations"] == 12
    import json

    json.dumps(d)


def test_bound_audit_in_range_noiseless():
    # In range and noiseless: left side is the solver error, right side is
    # (3/2) * eps_hat only.
    g = seeded_network([3, 6, 16], seed=11)
    u = dct2_operator(16)
    a = sample_fixed(u, 16, seed=12)
    x0 = forward(g, derive_rng(13).standard_normal(3))
    b = apply(a, x0)
    res = recover(g, a, b, RecoveryConfig(seed=14), x0=x0)
    audit = recovery_bound_audit(res, x0, eta=np.zeros(16), a=a, eps_hat=res.residual)
    assert isinstance(audit, BoundAudit)
    assert audit.x_perp_norm == 0.0 and audit.eta_norm == 0.0
    assert audit.right == pytest.approx(1.5 * res.residual)
    # With m = n the solver residual equals the ambient error, so the bound holds.
    assert audit.satisfied


def test_bound_audit_with_components():
    g = seeded_network([3, 6, 16], seed=15)
    u = dct2_operator(16)
    a = sample_fixed(u, 8, seed=16)
    rng = derive_rng(17)
    x_range = forward(g, rng.standard_normal(3))
    x_perp = 0.01 * rng.standard_normal(16)
    x0 = x_range + x_perp
    eta = 0.001 * rng.standard_normal(8)
    b = apply(a, x0) + eta
    res = recover(g, a, b, RecoveryConfig(seed=18), x0=x0)
    audit = recovery_bound_audit(res, x0, eta=eta, a=a, eps_hat=res.residual, x_perp=x_perp)
    expected_right = (
        np.linalg.norm(x_perp)
        + 3 * np.linalg.norm(apply(a, x_perp))
        + 3 * np.linalg.norm(eta)
        + 1.5 * res.residual
    )
    assert audit.right == pytest.approx(expected_right)
    assert audit.left == pytest.approx(np.linalg.norm(res.x_hat - x0))


def test_bound_audit_shape_checks():
    res = RecoveryResult(
        z_hat=np.zeros(2),
        x_hat=np.zeros(4),
        rre=None,
        iterations=1,
        termination="max_iters",
        residual=0.0,
    )
    a = sample_fixed(dct2_operator(4), 2, seed=0)
    with pytest.raises(DimensionMismatch):
        recovery_bound_audit(res, np.zeros(5), np.zeros(2), a, 0.0)
    with pytest.raises(DimensionMismatch):
        recovery_bound_audit(res, np.zeros(4), np.zeros(2), a, 0.0, x_perp=np.zeros(3))


# ---------------------------------------------------------------------------
# Differential tests: the block engine against the one-vector Adam loop
# ---------------------------------------------------------------------------


def _oracle_adam_solve(g, a, b, z0, config):
    lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    z = z0.copy()
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    termination = "max_iters"
    it = 0
    for it in range(1, config.max_iters + 1):
        value, grad = objective_value_grad(g, a, b, z)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise FloatingPointError("nonfinite objective")
        if np.linalg.norm(grad) <= config.grad_tol:
            termination = "grad_tol"
            break
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad**2
        m_hat = m / (1 - b1**it)
        v_hat = v / (1 - b2**it)
        z = z - lr * m_hat / (np.sqrt(v_hat) + eps)
    return z, it, termination


def oracle_recover(g, a, b, config=RecoveryConfig(), x0=None):
    """The scalar recover loop: one restart and one latent vector at a time."""
    b = np.asarray(b)
    if b.shape[0] != a.num_rows:
        raise DimensionMismatch(f"measurement length {b.shape[0]} != |J| = {a.num_rows}")
    best = None
    failed = 0
    for restart in range(config.restarts):
        rng = derive_rng(config.seed, restart)
        z0 = rng.standard_normal(g.code_dim)
        try:
            z, iters, termination = _oracle_adam_solve(g, a, b, z0, config)
        except FloatingPointError:
            failed += 1
            continue
        x = forward(g, z)
        residual = float(np.linalg.norm(apply(a, x) - b))
        if best is None or residual < best[3]:
            best = (z, x, iters, residual, termination)
    if best is None:
        raise GcsError(f"all {config.restarts} restarts hit a nonfinite objective")
    z, x, iters, residual, termination = best
    err = None
    if x0 is not None and np.linalg.norm(x0) > 0:
        err = rre(x0, x)
    return RecoveryResult(
        z_hat=z,
        x_hat=x,
        rre=err,
        iterations=iters,
        termination=termination,
        residual=residual,
        failed_restarts=failed,
    )


def assert_identical(got, want):
    np.testing.assert_array_equal(got.z_hat, want.z_hat)
    np.testing.assert_array_equal(got.x_hat, want.x_hat)
    assert (got.rre, got.iterations, got.termination, got.residual, got.failed_restarts) == (
        want.rre, want.iterations, want.termination, want.residual, want.failed_restarts
    )


def small_network(widths, seed, biases=False, final="none"):
    rng = derive_rng(seed)
    weights = [rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(widths[:-1], widths[1:])]
    bs = [0.1 * rng.standard_normal(b) for b in widths[1:]] if biases else None
    return GenerativeNetwork(weights=weights, biases=bs, final_activation=final)


def cell_problems(g, u, m_list, seed, sampler=sample_fixed, config=RecoveryConfig()):
    """One in-range problem per m, with restarts cycling through 1..3."""
    ops, bs, configs, x0s = [], [], [], []
    for t, m in enumerate(m_list):
        a = sampler(u, m, spawn_seed(seed, t))
        x0 = forward(g, derive_rng(seed, t, 1).standard_normal(g.code_dim))
        ops.append(a)
        bs.append(apply(a, x0))
        configs.append(replace(config, restarts=1 + t % 3, seed=spawn_seed(seed, t, 2)))
        x0s.append(x0)
    return ops, bs, configs, x0s


def assert_batch_matches_oracle(g, ops, bs, configs, x0s):
    got = recover_batch(g, ops, bs, configs, x0s)
    assert len(got) == len(ops)
    for res, a, b, config, x0 in zip(got, ops, bs, configs, x0s):
        want = oracle_recover(g, a, b, config, x0=x0)
        assert_identical(res, want)
        assert_identical(recover(g, a, b, config, x0=x0), want)
    return got


@pytest.mark.parametrize("unitary", ["dct", "dft"])
@pytest.mark.parametrize("biases", [False, True])
@pytest.mark.parametrize("final", ["none", "sigmoid"])
def test_batch_matches_scalar_loop_fixed(unitary, biases, final):
    u = (dct2_operator if unitary == "dct" else dft_operator)(24)
    g = small_network([3, 10, 24], seed=40, biases=biases, final=final)
    # Equal |J| throughout, so every column shares one block.
    ops, bs, configs, x0s = cell_problems(g, u, [10] * 5, seed=41,
                                          config=RecoveryConfig(max_iters=600))
    assert_batch_matches_oracle(g, ops, bs, configs, x0s)


def test_batch_matches_scalar_loop_bernoulli_unequal_rows():
    u = dct2_operator(12)
    g = small_network([2, 6, 12], seed=42)
    seeds = [spawn_seed(43, t) for t in range(40)]
    sizes = {s: sample_bernoulli(u, 2, s).num_rows for s in seeds}
    empty = next(s for s in seeds if sizes[s] == 0)
    chosen = [empty] + [s for s in seeds if sizes[s] > 0][:7]
    assert len({sizes[s] for s in chosen}) >= 3
    ops, bs, configs, x0s = [], [], [], []
    for t, s in enumerate(chosen):
        a = sample_bernoulli(u, 2 + t % 3, s)
        x0 = forward(g, derive_rng(44, t).standard_normal(2))
        ops.append(a)
        bs.append(apply(a, x0))
        configs.append(RecoveryConfig(restarts=2, seed=spawn_seed(45, t), max_iters=400))
        x0s.append(x0)
    got = assert_batch_matches_oracle(g, ops, bs, configs, x0s)
    # An empty J has a zero gradient: every restart stops at once.
    assert got[0].iterations == 1 and got[0].termination == "grad_tol"
    assert got[0].residual == 0.0


def test_batch_matches_scalar_loop_max_iters_tail():
    u = dct2_operator(16)
    g = small_network([3, 8, 16], seed=46, biases=True)
    ops, bs, configs, x0s = cell_problems(g, u, [6] * 4, seed=47,
                                          config=RecoveryConfig(max_iters=25))
    got = assert_batch_matches_oracle(g, ops, bs, configs, x0s)
    assert any(r.termination == "max_iters" and r.iterations == 25 for r in got)


def test_batch_matches_scalar_loop_nonfinite_restart():
    # Nonnegative first-layer weights: a restart that starts in the negative
    # quadrant is dead and stops at once, while one with live units takes an
    # Adam step of ~1e200 and overflows.
    u = dct2_operator(16)
    ops, bs, configs, x0s = [], [], [], []
    nets = []
    for seed in (0, 1, 2, 3):
        rng = derive_rng(seed)
        g = GenerativeNetwork(weights=[np.abs(rng.standard_normal((6, 2))),
                                       rng.standard_normal((16, 6))])
        a = sample_fixed(u, 8, seed)
        x0 = forward(g, np.abs(rng.standard_normal(2)))
        nets.append(g)
        ops.append(a)
        bs.append(apply(a, x0))
        configs.append(RecoveryConfig(learning_rate=1e200, restarts=4, seed=seed, max_iters=50))
        x0s.append(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for g, a, b, config, x0 in zip(nets, ops, bs, configs, x0s):
            res = recover(g, a, b, config, x0=x0)
            want = oracle_recover(g, a, b, config, x0=x0)
            assert_identical(res, want)
            assert 0 < want.failed_restarts < config.restarts
        # Every restart of this problem overflows.
        rng = derive_rng(11)
        g = GenerativeNetwork(weights=[np.abs(rng.standard_normal((6, 2))),
                                       rng.standard_normal((16, 6))])
        a = sample_fixed(u, 8, 11)
        b = apply(a, forward(g, np.abs(rng.standard_normal(2))))
        config = RecoveryConfig(learning_rate=1e200, restarts=4, seed=11, max_iters=50)
        with pytest.raises(GcsError):
            oracle_recover(g, a, b, config)
        with pytest.raises(GcsError, match="all 4 restarts"):
            recover(g, a, b, config)


def test_batch_split_over_capped_blocks_matches_scalar_loop(monkeypatch):
    import gcs.recovery

    g = small_network([3, 8, 16], seed=50)
    ops, bs, configs, x0s = cell_problems(g, dct2_operator(16), [6] * 4, seed=51,
                                          config=RecoveryConfig(max_iters=300))
    # Same |J|, other dtype: DFT problems get a block of their own.
    more = cell_problems(g, dft_operator(16), [6] * 2, seed=52,
                         config=RecoveryConfig(max_iters=300))
    ops, bs, configs, x0s = (a + b for a, b in zip((ops, bs, configs, x0s), more))
    # Room for two DCT columns per block, so problems' restarts straddle blocks.
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 2 * 6 * 16 * 8)
    assert_batch_matches_oracle(g, ops, bs, configs, x0s)


def test_batch_validation():
    g = small_network([2, 4, 8], seed=48)
    a = sample_fixed(dct2_operator(8), 4, seed=49)
    b = np.zeros(4)
    with pytest.raises(DimensionMismatch):
        recover_batch(g, [a, a], [b], [RecoveryConfig()] * 2)
    with pytest.raises(DimensionMismatch):
        recover_batch(g, [a], [np.zeros(5)], [RecoveryConfig()])
    with pytest.raises(DimensionMismatch):
        recover_batch(g, [sample_fixed(dct2_operator(9), 4, seed=49)], [b], [RecoveryConfig()])
    with pytest.raises(DomainError):
        recover_batch(g, [a, a], [b, b], [RecoveryConfig(), RecoveryConfig(max_iters=10)])


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(2, 3),
    width=st.integers(3, 8),
    n=st.integers(4, 12),
    unitary=st.sampled_from(["dct", "dft"]),
    biases=st.booleans(),
    final=st.sampled_from(["none", "sigmoid"]),
    bernoulli=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batch_equals_scalar_property(k, width, n, unitary, biases, final, bernoulli, seed):
    width = max(width, k)
    u = (dct2_operator if unitary == "dct" else dft_operator)(n)
    g = small_network([k, width, n], seed=seed, biases=biases, final=final)
    m_list = [max(2, (n * (t + 1)) // 4) for t in range(3)]
    sampler = sample_bernoulli if bernoulli else sample_fixed
    ops, bs, configs, x0s = cell_problems(g, u, m_list, seed, sampler,
                                          RecoveryConfig(max_iters=120))
    assert_batch_matches_oracle(g, ops, bs, configs, x0s)
