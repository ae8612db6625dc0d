import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs import cli
from gcs.errors import DimensionMismatch, DomainError, GcsError
from gcs.gnn import GenerativeNetwork, forward, objective_value_grad, save_network
from gcs.recovery import (
    SUCCESS_RRE,
    RecoveryConfig,
    recover,
    recover_batch,
    recovery_bound_audit,
    rre,
)
from gcs.sampling import (
    SubsampledIsometry,
    apply,
    derive_rng,
    sample_bernoulli,
    sample_fixed,
    spawn_seed,
)
from gcs.transforms import dct2_operator, dft_operator, identity_operator


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
    with pytest.raises(DomainError, match="rre undefined for a zero reference signal"):
        rre(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        rre(np.ones(3), np.ones(4))


def test_rre_scale_invariance():
    rng = derive_rng(0)
    x0, xh = rng.standard_normal(10), rng.standard_normal(10)
    assert rre(7.0 * x0, 7.0 * xh) == pytest.approx(rre(x0, xh))


def test_config_validation():
    with pytest.raises(DomainError, match="learning_rate must be positive"):
        RecoveryConfig(learning_rate=0.0)
    with pytest.raises(DomainError, match="restarts must be positive"):
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
    res = recover(g, a, b, x0=x0, seed=4)
    assert res["rre"] is not None and res["rre"] <= SUCCESS_RRE
    assert res["termination"] in ("grad_tol", "max_iters")
    np.testing.assert_allclose(res["x_hat"], forward(g, res["z_hat"]))


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
    single = recover(g, a, b, RecoveryConfig(restarts=1, max_iters=500), seed=10)
    multi = recover(g, a, b, RecoveryConfig(restarts=5, max_iters=500), seed=10)
    assert multi["residual"] <= single["residual"] + 1e-12
    assert multi["failed_restarts"] == 0


RESULT_KEYS = ["z_hat", "x_hat", "rre", "iterations", "termination", "residual", "failed_restarts"]


@pytest.mark.parametrize("unitary", [dct2_operator, dft_operator])
def test_recover_batch_returns_one_plain_dict_per_problem(unitary):
    # A result is a dict of exactly these keys, in this order, which is the
    # order gcs recover prints them in.
    g = seeded_network([3, 6, 16], seed=7)
    a = sample_fixed(unitary(16), 10, seed=8)
    x0 = forward(g, derive_rng(9).standard_normal(3))
    [res] = recover_batch([(g, a, apply(a, x0), x0, 10)], RecoveryConfig(max_iters=50))
    assert type(res) is dict and list(res) == RESULT_KEYS
    np.testing.assert_array_equal(res["x_hat"], forward(g, res["z_hat"]))


def test_result_to_json_roundtrippable(tmp_path, monkeypatch, capsys):
    # gcs recover prints the result's fields, its arrays as lists, and "success".
    res = {"z_hat": np.array([1.0, 2.0]), "x_hat": np.array([0.5]), "rre": 0.1,
           "iterations": 12, "termination": "grad_tol", "residual": 1e-9, "failed_restarts": 0}
    path = str(tmp_path / "net.json")
    save_network(seeded_network([2, 4, 8], seed=0), path)
    monkeypatch.setattr(cli.recovery, "recover", lambda *args, **kwargs: res)
    assert cli.main(["recover", "--weights", path, "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "z_hat": [1.0, 2.0], "x_hat": [0.5], "rre": 0.1, "iterations": 12,
        "termination": "grad_tol", "residual": 1e-9, "failed_restarts": 0, "success": False,
    }


def test_bound_audit_in_range_noiseless():
    # In range and noiseless: left side is the solver error, right side is
    # (3/2) * eps_hat only.
    g = seeded_network([3, 6, 16], seed=11)
    u = dct2_operator(16)
    a = sample_fixed(u, 16, seed=12)
    x0 = forward(g, derive_rng(13).standard_normal(3))
    b = apply(a, x0)
    res = recover(g, a, b, x0=x0, seed=14)
    audit = recovery_bound_audit(res, x0, eta=np.zeros(16), a=a, eps_hat=res["residual"])
    assert list(audit) == ["left", "right", "satisfied", "x_perp_norm", "a_x_perp_norm",
                           "eta_norm", "eps_hat"]
    assert audit["x_perp_norm"] == 0.0 and audit["eta_norm"] == 0.0
    assert audit["right"] == pytest.approx(1.5 * res["residual"])
    # With m = n the solver residual equals the ambient error, so the bound holds.
    assert audit["satisfied"]


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
    res = recover(g, a, b, x0=x0, seed=18)
    audit = recovery_bound_audit(res, x0, eta=eta, a=a, eps_hat=res["residual"], x_perp=x_perp)
    expected_right = (
        np.linalg.norm(x_perp)
        + 3 * np.linalg.norm(apply(a, x_perp))
        + 3 * np.linalg.norm(eta)
        + 1.5 * res["residual"]
    )
    assert audit["right"] == pytest.approx(expected_right)
    assert audit["left"] == pytest.approx(np.linalg.norm(res["x_hat"] - x0))


def test_bound_audit_shape_checks():
    res = {"z_hat": np.zeros(2), "x_hat": np.zeros(4), "rre": None, "iterations": 1,
           "termination": "max_iters", "residual": 0.0, "failed_restarts": 0}
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
        _, grad = objective_value_grad(g, a, b, z)
        # One number decides: a restart fails where its gradient norm is not
        # finite and stops where it is at most grad_tol.
        norm = np.linalg.norm(grad)
        if not np.isfinite(norm):
            raise FloatingPointError("nonfinite objective")
        if norm <= config.grad_tol:
            termination = "grad_tol"
            break
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad**2
        m_hat = m / (1 - b1**it)
        v_hat = v / (1 - b2**it)
        z = z - lr * m_hat / (np.sqrt(v_hat) + eps)
    return z, it, termination


def oracle_recover(g, a, b, config=RecoveryConfig(), x0=None, seed=0):
    """The scalar recover loop: one restart and one latent vector at a time."""
    b = np.asarray(b)
    if b.shape[0] != a.num_rows:
        raise DimensionMismatch(f"measurement length {b.shape[0]} != |J| = {a.num_rows}")
    best = None
    failed = 0
    for restart in range(config.restarts):
        rng = derive_rng(seed, restart)
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
    return {"z_hat": z, "x_hat": x, "rre": err, "iterations": iters, "termination": termination,
            "residual": residual, "failed_restarts": failed}


def assert_identical(got, want):
    np.testing.assert_array_equal(got["z_hat"], want["z_hat"])
    np.testing.assert_array_equal(got["x_hat"], want["x_hat"])
    scalars = ("rre", "iterations", "termination", "residual", "failed_restarts")
    assert [got[key] for key in scalars] == [want[key] for key in scalars]


def small_network(widths, seed, biases=False):
    rng = derive_rng(seed)
    weights = [rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(widths[:-1], widths[1:])]
    bs = [0.1 * rng.standard_normal(b) for b in widths[1:]] if biases else None
    return GenerativeNetwork(weights=weights, biases=bs)


def cell_problems(g, u, m_list, seed, sampler=sample_fixed, config=RecoveryConfig()):
    """One in-range problem per m: (records (g, a, b, x0, seed), config), the
    arguments of recover_batch, with two restarts each."""
    problems = []
    for t, m in enumerate(m_list):
        a = sampler(u, m, spawn_seed(seed, t))
        x0 = forward(g, derive_rng(seed, t, 1).standard_normal(g.code_dim))
        problems.append((g, a, apply(a, x0), x0, spawn_seed(seed, t, 2)))
    return problems, replace(config, restarts=2)


def assert_batch_matches_oracle(problems, config):
    got = recover_batch(problems, config)
    assert len(got) == len(problems)
    for res, (g, a, b, x0, seed) in zip(got, problems):
        want = oracle_recover(g, a, b, config, x0=x0, seed=seed)
        assert_identical(res, want)
        assert_identical(recover(g, a, b, config, x0=x0, seed=seed), want)
    return got


@pytest.mark.parametrize("unitary", ["dct", "dft", "dct-complex-b"])
@pytest.mark.parametrize("biases", [False, True])
def test_batch_matches_scalar_loop_fixed(unitary, biases, monkeypatch):
    u = (dft_operator if unitary == "dft" else dct2_operator)(24)
    g = small_network([3, 10, 24], seed=40, biases=biases)
    # Equal |J| throughout, so every column is in one group.
    problems, config = cell_problems(g, u, [10] * 5, seed=41, config=RecoveryConfig(max_iters=600))
    if unitary != "dct-complex-b":
        assert_batch_matches_oracle(problems, config)
        return
    # Measurements are real: a complex one is rejected under every unitary,
    # by the batch and the scalar path before any lockstep loop is built, and
    # by the objective.
    import gcs.recovery

    def no_loop(*args):
        raise AssertionError("a lockstep loop was built")

    monkeypatch.setattr(gcs.recovery, "_lockstep", no_loop)
    for u in (dct2_operator(24), dft_operator(24)):
        problems, config = cell_problems(g, u, [10] * 5, seed=41,
                                         config=RecoveryConfig(max_iters=600))
        _, a, b, x0, seed = problems[1]
        problems[1] = (g, a, b + 1e-3j, x0, seed)
        with pytest.raises(DomainError, match="^measurements are real, got a complex128 "
                                              "measurement$"):
            recover_batch(problems, config)
        for solve in (lambda a, b: recover(g, a, b, config, seed=seed),
                      lambda a, b: objective_value_grad(g, a, b, np.zeros(3))):
            with pytest.raises(DomainError, match="^measurements are real"):
                solve(*problems[1][1:3])


def test_dft_plan_allocates_only_real_buffers(monkeypatch):
    # A complex U's rows enter a plan as [Re U_J; Im U_J]: its rows,
    # measurements, residuals and gradients are float64 (masks and flags
    # bool), and each gathered row block holds 2|J| real rows.
    import gcs.recovery

    plans = []

    class Recorded(gcs.recovery._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(gcs.recovery, "_Plan", Recorded)
    g = small_network([3, 10, 24], seed=40, biases=True)
    assert_batch_matches_oracle(*cell_problems(g, dft_operator(24), [6, 10] * 2, seed=41,
                                               config=RecoveryConfig(max_iters=200)))

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)

    assert plans
    for plan in plans:
        dtypes = {a.dtype for value in vars(plan).values() for a in arrays(value)}
        assert dtypes == {np.dtype(np.float64), np.dtype(bool)}
        assert {rows.shape[1] for rows, _, _ in plan.gathers} <= {12, 20}
        assert plan.r.size == plan.b.size == sum(rows.shape[0] * rows.shape[1]
                                                 for rows, _, _ in plan.gathers)


def test_capacity_of_the_desk_queues(monkeypatch):
    # The columns the one lockstep loop of the desk phase portrait and of the
    # desk sweep first admits. Their queues are built as the harness builds
    # them: per network, per m, per trial, one column of |J| = m per restart.
    import json
    import os

    from gcs.linops import load_matrix
    from gcs.training import load_vae

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    got = {}
    for name in ("phase", "sweep"):
        with open(os.path.join(root, "configs", f"{name}_desk.json")) as f:
            cfg = json.load(f)
        if name == "phase":
            w1, w_high = (load_matrix(os.path.join(root, p))
                          for p in (cfg["inner_weights"][0], cfg["w_high"]))
            widths, nets = (w1.shape[1], w1.shape[0], w_high.shape[0]), len(cfg["betas"])
        else:
            widths = tuple(load_vae(os.path.join(root, cfg["models"]["reg"])).decoder.widths)
            nets = len(cfg["models"])
        u = dct2_operator(widths[-1])
        gs = [small_network(widths, seed=95 + i) for i in range(nets)]
        problems = [(g, a, np.zeros(a.num_rows), None, 0)
                    for g in gs for a in (sample_fixed(u, m, spawn_seed(96, m, t))
                                          for m in cfg["m_list"] for t in range(cfg["trials"]))]
        config = RecoveryConfig(max_iters=1, restarts=cfg["recovery"]["restarts"])
        trace = trace_loop(monkeypatch)
        recover_batch(problems, config)
        got[name] = trace["in_flight"][0]
    assert got == {"phase": 152, "sweep": 208}


def test_batch_matches_scalar_loop_bernoulli_unequal_rows():
    u = dct2_operator(12)
    g = small_network([2, 6, 12], seed=42)
    seeds = [spawn_seed(43, t) for t in range(40)]
    sizes = {s: sample_bernoulli(u, 2, s).num_rows for s in seeds}
    empty = next(s for s in seeds if sizes[s] == 0)
    chosen = [empty] + [s for s in seeds if sizes[s] > 0][:7]
    assert len({sizes[s] for s in chosen}) >= 3
    problems = []
    for t, s in enumerate(chosen):
        a = sample_bernoulli(u, 2 + t % 3, s)
        x0 = forward(g, derive_rng(44, t).standard_normal(2))
        problems.append((g, a, apply(a, x0), x0, spawn_seed(45, t)))
    config = RecoveryConfig(restarts=2, max_iters=400)
    got = assert_batch_matches_oracle(problems, config)
    # An empty J has a zero gradient: every restart stops at once.
    assert got[0]["iterations"] == 1 and got[0]["termination"] == "grad_tol"
    assert got[0]["residual"] == 0.0


def test_batch_matches_scalar_loop_max_iters_tail():
    u = dct2_operator(16)
    g = small_network([3, 8, 16], seed=46, biases=True)
    got = assert_batch_matches_oracle(*cell_problems(g, u, [6] * 4, seed=47,
                                                     config=RecoveryConfig(max_iters=25)))
    assert any(r["termination"] == "max_iters" and r["iterations"] == 25 for r in got)


def test_batch_matches_scalar_loop_nonfinite_restart():
    # Nonnegative first-layer weights: a restart that starts in the negative
    # quadrant is dead and stops at once, while one with live units takes an
    # Adam step of ~1e200 and overflows.
    u = dct2_operator(16)
    config = RecoveryConfig(learning_rate=1e200, restarts=4, max_iters=50)
    ops, bs, x0s = [], [], []
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
        x0s.append(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed, (g, a, b, x0) in enumerate(zip(nets, ops, bs, x0s)):
            res = recover(g, a, b, config, x0=x0, seed=seed)
            want = oracle_recover(g, a, b, config, x0=x0, seed=seed)
            assert_identical(res, want)
            assert 0 < want["failed_restarts"] < config.restarts
        # Every restart of this problem overflows.
        rng = derive_rng(11)
        g = GenerativeNetwork(weights=[np.abs(rng.standard_normal((6, 2))),
                                       rng.standard_normal((16, 6))])
        a = sample_fixed(u, 8, 11)
        b = apply(a, forward(g, np.abs(rng.standard_normal(2))))
        with pytest.raises(GcsError):
            oracle_recover(g, a, b, config, seed=11)
        with pytest.raises(GcsError, match="all 4 restarts"):
            recover(g, a, b, config, seed=11)


def test_infinite_gradient_fails_restart_at_max_iters():
    # The constant DCT row and positive weights: every term of the gradient
    # is about -1e308, so each entry overflows to -inf and none is NaN. Its
    # norm, inf, is above grad_tol, but the restart fails on its first
    # iteration, which is also max_iters: it never ends as a result.
    u = dct2_operator(8)
    a = SubsampledIsometry(base=u, m=1, indices=np.array([0]))
    g = GenerativeNetwork(weights=[1.0 + derive_rng(97).random((8, 2))])
    b = np.full(1, 1e308)
    config = RecoveryConfig(restarts=2, max_iters=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for restart in range(config.restarts):
            z0 = derive_rng(98, restart).standard_normal(2)
            _, grad = objective_value_grad(g, a, b, z0)
            assert (grad == -np.inf).all()
        with pytest.raises(GcsError, match="all 2 restarts hit a nonfinite objective"):
            oracle_recover(g, a, b, config, seed=98)
        with pytest.raises(GcsError, match="all 2 restarts hit a nonfinite objective"):
            recover(g, a, b, config, seed=98)


@pytest.mark.parametrize("final_scale", [1.0, 1e-150])
def test_overflowing_value_runs_on_where_the_gradient_is_finite(final_scale):
    # Every residual entry is about -1e155, so 0.5*||r||^2 overflows, but
    # every gradient entry is finite. At final_scale 1e-150 the gradient is
    # small, Adam steps as usual and each restart runs on to max_iters, as in
    # the scalar loop. At 1 the gradient's squared norm overflows, so its
    # norm is not finite and each restart fails on its first iteration.
    g = small_network([3, 8, 16], seed=92)
    g = GenerativeNetwork(weights=[g.weights[0], final_scale * g.weights[1]])
    a = sample_fixed(dct2_operator(16), 8, seed=93)
    b = np.full(8, 1e155)
    config = RecoveryConfig(restarts=2, max_iters=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for restart in range(config.restarts):
            z0 = derive_rng(94, restart).standard_normal(3)
            value, grad = objective_value_grad(g, a, b, z0)
            assert value == np.inf and np.isfinite(grad).all()
            assert (grad @ grad == np.inf) == (final_scale == 1.0)
        if final_scale == 1.0:
            for solve in (oracle_recover, recover):
                with pytest.raises(GcsError, match="^all 2 restarts hit a nonfinite objective$"):
                    solve(g, a, b, config, seed=94)
            return
        got = recover(g, a, b, config, seed=94)
        assert_identical(got, oracle_recover(g, a, b, config, seed=94))
    assert (got["termination"], got["iterations"], got["failed_restarts"]) == ("max_iters", 30, 0)


def test_batch_split_over_capped_blocks_matches_scalar_loop(monkeypatch):
    import gcs.recovery

    g = small_network([3, 8, 16], seed=50)
    problems, config = cell_problems(g, dct2_operator(16), [6] * 4, seed=51,
                                     config=RecoveryConfig(max_iters=300))
    # Same |J|, complex U: the DFT problems' 2|J| real rows form a group of
    # their own in the same loop.
    problems += cell_problems(g, dft_operator(16), [6] * 2, seed=52,
                              config=RecoveryConfig(max_iters=300))[0]
    # Room for two DCT columns in flight (each counts about 3 kB), so a
    # problem's restarts enter apart.
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 10000)
    monkeypatch.setattr(gcs.recovery, "BLOCK_COLUMNS", 1)
    trace = trace_loop(monkeypatch)
    assert_batch_matches_oracle(problems, config)
    assert max(trace["in_flight"]) == 2


def test_batch_validation():
    g = small_network([2, 4, 8], seed=48)
    a = sample_fixed(dct2_operator(8), 4, seed=49)
    b = np.zeros(4)
    config = RecoveryConfig()
    with pytest.raises(DimensionMismatch):
        recover_batch([(g, a, np.zeros(5), None, 0)], config)
    with pytest.raises(DimensionMismatch):
        recover_batch([(g, sample_fixed(dct2_operator(9), 4, seed=49), b, None, 0)], config)
    with pytest.raises(DomainError, match=r"^recovery seed must be >= 0, got -1$"):
        recover_batch([(g, a, b, None, 0), (g, a, b, None, -1)], config)
    with pytest.raises(DomainError, match=r"^recovery seed must be an integer, got 0.5$"):
        recover(g, a, b, seed=0.5)
    assert recover_batch([], config) == []


@pytest.mark.parametrize("x0", [np.ones(5), np.zeros(5)], ids=["ones", "zeros"])
def test_batch_checks_x0_before_any_loop_step(monkeypatch, x0):
    # x0 is None or of the network's output shape, checked with the rest of
    # its record before any column runs: a zero x0 of another shape, whose
    # rre is undefined, is rejected all the same.
    import gcs.recovery

    def no_loop(*args):
        raise AssertionError("a lockstep loop was built")

    monkeypatch.setattr(gcs.recovery, "_lockstep", no_loop)
    g = small_network([4, 16, 64], seed=53)
    a = sample_fixed(dct2_operator(64), 16, seed=54)
    b = apply(a, forward(g, derive_rng(55).standard_normal(4)))
    with pytest.raises(DimensionMismatch, match=r"^x0 has shape \(5,\), the network's output "
                                                r"\(64,\)$"):
        recover_batch([(g, a, b, x0, 0)], RecoveryConfig(restarts=3))


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(2, 3),
    width=st.integers(3, 8),
    n=st.integers(4, 12),
    unitary=st.sampled_from(["dct", "dft"]),
    biases=st.booleans(),
    bernoulli=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batch_equals_scalar_property(k, width, n, unitary, biases, bernoulli, seed):
    width = max(width, k)
    u = (dct2_operator if unitary == "dct" else dft_operator)(n)
    g = small_network([k, width, n], seed=seed, biases=biases)
    m_list = [max(2, (n * (t + 1)) // 4) for t in range(3)]
    sampler = sample_bernoulli if bernoulli else sample_fixed
    assert_batch_matches_oracle(*cell_problems(g, u, m_list, seed, sampler,
                                               RecoveryConfig(max_iters=120)))


# ---------------------------------------------------------------------------
# Mixed-network batches: one loop, columns running different networks
# ---------------------------------------------------------------------------


def mixed_problems(nets, u, m_list, seed, config):
    """Problem t runs nets[t % len(nets)]: (records (g, a, b, x0, seed),
    config), the arguments of recover_batch, with two restarts each."""
    problems = []
    for t, m in enumerate(m_list):
        g = nets[t % len(nets)]
        a = sample_fixed(u, m, spawn_seed(seed, t))
        x0 = forward(g, derive_rng(seed, t, 1).standard_normal(g.code_dim))
        problems.append((g, a, apply(a, x0), x0, spawn_seed(seed, t, 2)))
    return problems, replace(config, restarts=2)


def assert_mixed_batch_matches(problems, config):
    """The mixed batch equals one batch per network and the scalar oracle."""
    got = recover_batch(problems, config)
    assert len(got) == len(problems)
    for g in {id(p[0]): p[0] for p in problems}.values():
        idx = [i for i, p in enumerate(problems) if p[0] is g]
        alone = recover_batch([problems[i] for i in idx], config)
        for i, res in zip(idx, alone):
            assert_identical(got[i], res)
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))
    # Columns left the loop at different iterations, so its rows were
    # compacted while other networks' columns stayed live.
    assert len({r["iterations"] for r in got if r["termination"] == "grad_tol"}) >= 2
    return got


@pytest.mark.parametrize("unitary", ["dct", "dft"])
def test_mixed_batch_differs_in_final_layer(unitary):
    # The phase portrait's case: shared inner layers, one final layer per net.
    u = (dct2_operator if unitary == "dct" else dft_operator)(24)
    base = small_network([3, 10, 24], seed=60)
    rng = derive_rng(61)
    nets = [GenerativeNetwork(weights=[base.weights[0], rng.standard_normal((24, 10)) / 4])
            for _ in range(3)]
    # A distinct network object holding nets[0]'s very arrays.
    nets.append(GenerativeNetwork(weights=list(nets[0].weights)))
    assert nets[0].weights[0] is nets[1].weights[0] is nets[3].weights[0]
    problems = mixed_problems(nets, u, [10, 12] * 6, seed=62,
                              config=RecoveryConfig(max_iters=400, grad_tol=1e-4))
    assert_mixed_batch_matches(*problems)


@pytest.mark.parametrize("unitary", ["dct", "dft"])
def test_mixed_batch_biased_nets_differ_everywhere(unitary):
    u = (dct2_operator if unitary == "dct" else dft_operator)(16)
    nets = [small_network([3, 8, 16], seed=63 + i, biases=True) for i in range(3)]
    # Same weight arrays as nets[0], other biases: the layers are not shared.
    rng = derive_rng(66)
    nets.insert(1, GenerativeNetwork(weights=nets[0].weights,
                                     biases=[0.1 * rng.standard_normal(b) for b in (8, 16)]))
    problems = mixed_problems(nets, u, [8] * 12, seed=66,
                              config=RecoveryConfig(max_iters=400, grad_tol=1e-4))
    assert_mixed_batch_matches(*problems)


def test_mixed_batch_split_over_capped_blocks(monkeypatch):
    import gcs.recovery

    u = dct2_operator(16)
    nets = [small_network([3, 8, 16], seed=70 + i, biases=True) for i in range(3)]
    problems = mixed_problems(nets, u, [6] * 10, seed=73,
                              config=RecoveryConfig(max_iters=400, grad_tol=1e-4))
    # Room for five columns in flight: a problem's restarts enter apart.
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 18500)
    monkeypatch.setattr(gcs.recovery, "BLOCK_COLUMNS", 1)
    trace = trace_loop(monkeypatch)
    assert_mixed_batch_matches(*problems)
    assert max(trace["in_flight"]) == 5


def test_mixed_batch_of_different_shapes():
    # Networks of other widths and code dims get loops of their own within
    # one call; biased and unbiased networks share one.
    u = dct2_operator(16)
    nets = [
        small_network([3, 8, 16], seed=75),
        small_network([3, 9, 16], seed=76),
        small_network([2, 8, 16], seed=77),
        small_network([3, 8, 16], seed=78, biases=True),
        small_network([3, 10, 16], seed=79, biases=True),
    ]
    problems = mixed_problems(nets, u, [8, 10] * 5, seed=74,
                              config=RecoveryConfig(max_iters=400, grad_tol=1e-4))
    assert_mixed_batch_matches(*problems)


def test_mixed_batch_of_different_depths_and_output_dims():
    # Each loop takes its layer count and output dimension from its own
    # networks, not from the batch's first network.
    nets = [small_network([3, 8, 16], seed=75), small_network([3, 8, 8, 16], seed=76),
            small_network([3, 8, 32], seed=77)]
    problems = []
    for g in nets:
        more, config = mixed_problems([g], dct2_operator(g.ambient_dim), [8, 10], seed=74,
                                      config=RecoveryConfig(max_iters=200, grad_tol=1e-4))
        problems += more
    got = recover_batch(problems, config)
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))


def trace_loop(monkeypatch):
    """Record, per lockstep iteration, the columns in flight, and per column
    the iterations run before it entered (it draws its start on entry)."""
    import gcs.recovery

    trace = {"in_flight": [], "entered_after": []}
    block_grad, draw = gcs.recovery._block_grad, gcs.recovery.derive_rng

    def counted(*args):
        trace["in_flight"].append(len(args[-1]))  # z, one latent vector per column
        return block_grad(*args)

    def drawn(*args):
        trace["entered_after"].append(len(trace["in_flight"]))
        return draw(*args)

    monkeypatch.setattr(gcs.recovery, "_block_grad", counted)
    monkeypatch.setattr(gcs.recovery, "derive_rng", drawn)
    return trace


def test_compaction_waits_for_an_eighth_of_the_columns(monkeypatch):
    import gcs.recovery

    # 36 columns that finish at many different iterations, up to 23 in flight.
    g = small_network([3, 8, 16], seed=90)
    problems, config = cell_problems(g, dct2_operator(16), [8] * 18, seed=91,
                                     config=RecoveryConfig(max_iters=400, grad_tol=1e-4))
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 80000)
    monkeypatch.setattr(gcs.recovery, "BLOCK_COLUMNS", 1)
    trace = trace_loop(monkeypatch)
    plan, builds = gcs.recovery._Plan, []

    def built(*args):
        builds.append(len(trace["in_flight"]))  # after this many iterations
        return plan(*args)

    monkeypatch.setattr(gcs.recovery, "_Plan", built)
    got = recover_batch(problems, config)
    # The first plan is built at the start; each later one at a compaction.
    assert builds[0] == 0
    compactions = set(builds[1:])
    columns = len(problems) * config.restarts
    assert max(trace["in_flight"]) > 16
    # Finished columns wait for an eighth of those in flight: at most one
    # compaction per two leaving columns, where one per leave would take
    # about one per column.
    assert 2 * len(compactions) <= columns
    # Only a compaction frees room, so waiting columns enter only there.
    entered = {e for e in trace["entered_after"] if e > 0}
    assert entered and entered <= compactions
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))


def test_block_column_floor(monkeypatch):
    import gcs.recovery

    g = small_network([3, 8, 16], seed=80)
    problems, config = cell_problems(g, dct2_operator(16), [8] * 4, seed=81,
                                     config=RecoveryConfig(max_iters=300))
    # A cap below one column's rows still keeps BLOCK_COLUMNS columns in
    # flight: exactly that many while columns wait, and one enters as one leaves.
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 1)
    trace = trace_loop(monkeypatch)
    got = recover_batch(problems, config)
    columns, floor = len(problems) * config.restarts, gcs.recovery.BLOCK_COLUMNS
    assert columns > floor > 1
    entered = trace["entered_after"]
    assert len(entered) == columns and entered[:floor] == [0] * floor
    for it, live in enumerate(trace["in_flight"]):
        waiting = sum(e > it for e in entered)
        assert live == floor if waiting else live <= floor
    assert max(entered) > 0
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))


def test_mixed_unitaries_of_equal_rows_share_one_gather_product(monkeypatch):
    import gcs.recovery

    # DCT and identity problems of one |J| = 6, alternating. Each column
    # gathers its own rows, so all eight columns form one group and every
    # plan stacks their rows into one gather product, not one per unitary.
    g = small_network([3, 8, 16], seed=88)
    (dct, config), (eye, _) = (
        cell_problems(g, u, [6, 6], seed, config=RecoveryConfig(max_iters=300))
        for u, seed in ((dct2_operator(16), 89), (identity_operator(16), 90)))
    problems = [p for pair in zip(dct, eye) for p in pair]  # two restarts each
    stretches = []

    class Recorded(gcs.recovery._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            stretches.append(len(self.gathers))

    monkeypatch.setattr(gcs.recovery, "_Plan", Recorded)
    got = recover_batch(problems, config)
    assert [a.base.kind for _, a, *_ in problems] == ["dct", "explicit"] * 2
    assert stretches and set(stretches) == {1}
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))


def three_group_problems(g, u, sampler, seed, config):
    """Problems with at least three distinct |J|, as cell_problems returns them."""
    if sampler is sample_fixed:
        return cell_problems(g, u, [4, 6, 8] * 2, seed, sampler, config)
    for attempt in range(20):
        problems = cell_problems(g, u, [3, 5, 7, 9] * 2, spawn_seed(seed, attempt), sampler, config)
        rows = [a.num_rows for _, a, *_ in problems[0]]
        if len(set(rows)) >= 3 and all(rows):
            return problems
    raise AssertionError("no Bernoulli draw gave three row counts")


@pytest.mark.parametrize("unitary", ["dct", "dft"])
@pytest.mark.parametrize("sampler", [sample_fixed, sample_bernoulli])
@pytest.mark.parametrize("biases", [True, False])
def test_waiting_columns_match_scalar_loop(monkeypatch, unitary, sampler, biases):
    import gcs.recovery

    # n = 14: numpy's matmul rounds a strided operand of that length otherwise
    # than a contiguous one, so the DFT pullback must go through the view.
    u = (dct2_operator if unitary == "dct" else dft_operator)(14)
    g = small_network([3, 8, 14], seed=82, biases=biases)
    problems, config = three_group_problems(g, u, sampler, 83,
                                            RecoveryConfig(max_iters=300, grad_tol=1e-4))
    # BLOCK_BYTES at a third of the rows: later columns wait, then enter
    # beside columns that have taken many steps.
    rows = sum(a.num_rows for _, a, *_ in problems) * config.restarts * 14 * u.dtype.itemsize
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", rows // 3)
    monkeypatch.setattr(gcs.recovery, "BLOCK_COLUMNS", 1)
    trace = trace_loop(monkeypatch)
    got = recover_batch(problems, config)
    assert max(trace["entered_after"]) > 1
    for res, (g, a, b, x0, seed) in zip(got, problems):
        assert_identical(res, oracle_recover(g, a, b, config, x0=x0, seed=seed))


@pytest.mark.parametrize("limited", [False, True])
def test_max_iters_groups_run_in_one_loop(monkeypatch, limited):
    import gcs.recovery

    g = small_network([3, 8, 16], seed=84, biases=True)
    config = RecoveryConfig(max_iters=40, grad_tol=1e-30)
    problems, config = cell_problems(g, dct2_operator(16), [4, 6, 8] * 2, seed=85, config=config)
    if limited:
        # Room for eight of the twelve columns.
        monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", 28000)
        monkeypatch.setattr(gcs.recovery, "BLOCK_COLUMNS", 1)
    trace = trace_loop(monkeypatch)
    got = recover_batch(problems, config)
    groups = {a.num_rows: [] for _, a, *_ in problems}
    for (_, a, *_), res in zip(problems, got):
        groups[a.num_rows].append(res["termination"])
    assert len(groups) == 3 and all("max_iters" in t for t in groups.values())
    delay = max(trace["entered_after"])
    assert (delay > 0) == limited
    assert max(trace["in_flight"]) == (8 if limited else 12)
    assert len(trace["in_flight"]) <= config.max_iters + delay < 3 * config.max_iters


@pytest.mark.parametrize("unitary, widths, m_list, budget", [
    ("dct", [4, 16, 64], [8, 16, 32, 64], 2**19),
    ("dft", [4, 16, 64], [8, 16, 32, 64], 2**19),
    ("dct", [8, 32, 256], [4, 8, 16], 2**20),
    ("dft", [8, 32, 256], [4, 8, 16], 2**20),
])
def test_batch_memory_stays_within_block_bytes(monkeypatch, unitary, widths, m_list, budget):
    import tracemalloc
    import gcs.recovery

    # n = 256 builds rows by formula (FFT_MIN_N), whose temporaries count too.
    u = (dct2_operator if unitary == "dct" else dft_operator)(widths[-1])
    g = small_network(widths, seed=86, biases=True)
    problems = cell_problems(g, u, m_list * 12, seed=87,
                             config=RecoveryConfig(max_iters=30, grad_tol=1e-30))
    monkeypatch.setattr(gcs.recovery, "BLOCK_BYTES", budget)
    trace = trace_loop(monkeypatch)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        recover_batch(*problems)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # Everything the batch allocates, its transients and results included,
    # fits in BLOCK_BYTES; and the bound, not the queue's end, kept columns
    # waiting.
    assert peak <= budget
    assert max(trace["entered_after"]) > 0


@pytest.mark.parametrize("config, termination", [
    (RecoveryConfig(max_iters=50), "max_iters"),
    (RecoveryConfig(grad_tol=1e3), "grad_tol"),
])
def test_finished_column_does_not_pin_block(config, termination):
    g = small_network([3, 8, 16], seed=79)
    problems = cell_problems(g, dct2_operator(16), [8] * 3, seed=80, config=config)
    for res in recover_batch(*problems):
        assert res["termination"] == termination
        assert res["z_hat"].base is None
