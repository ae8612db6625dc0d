"""Acceptance gate: thirteen end-to-end checks of the toolkit's analytic and
Monte-Carlo claims, each printing one PASS/FAIL line.

Run via pytest (lines are printed to the real stdout so they survive capture)
or directly: python3 tests/test_acceptance.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

from gcs import cli
from gcs.coherence import (
    coherence_lower_bound,
    network_coherence_heuristic,
    subspace_coherence,
    typical_coherence_bound,
)
from gcs.gnn import (
    GenerativeNetwork,
    augment_biases,
    difference_network,
    forward,
    log_region_bound,
    objective_value_grad,
    orthant_bound,
    relu,
    save_network,
)
from gcs.harness import (
    PhaseConfig,
    SubspaceRipConfig,
    SweepConfig,
    phase_success_grid,
    run_phase_portrait,
    run_measurement_sweep,
    run_subspace_rip,
)
from gcs.linops import save_matrix
from gcs.recovery import SUCCESS_RRE, RecoveryConfig, recover
from gcs.sampling import (
    apply,
    cramer_chernoff_tail,
    derive_rng,
    isotropy_error,
    sample_fixed,
    spawn_seed,
)
from gcs.training import TrainConfig, save_vae, synth_dataset, train_vae
from gcs.transforms import UnitaryOperator, dct2_operator, explicit_operator

_CAPSYS = None


@pytest.fixture(autouse=True)
def _uncaptured_reporting(capsys):
    # Criterion verdict lines must reach the terminal even under pytest's
    # fd-level capture.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num: int, desc: str, ok: bool) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def random_orthonormal(n, k, seed):
    return np.linalg.qr(derive_rng(seed).standard_normal((n, k)))[0]


def seeded_network(widths, seed, biases=False):
    rng = derive_rng(seed)
    ws = [rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    bs = [rng.standard_normal(b) for b in widths[1:]] if biases else None
    return GenerativeNetwork(weights=ws, biases=bs)


# ---------------------------------------------------------------------------
# 1. Coherence floor and tightness
# ---------------------------------------------------------------------------


def test_criterion_01_coherence_floor():
    n = 64
    ops = [UnitaryOperator("dft", n), dct2_operator(n), explicit_operator(np.eye(n))]
    ok = True
    for k in (1, 4, 16):
        floor = coherence_lower_bound(k, n)
        for seed in range(500):
            q = random_orthonormal(n, k, seed)
            for u in ops:
                ok &= subspace_coherence(u, q) >= floor - 1e-12
        # Tightness: the coordinate subspace maps to the first k DFT columns,
        # every row of which has norm exactly sqrt(k/n).
        tight = subspace_coherence(UnitaryOperator("dft", n), np.eye(n)[:, :k])
        ok &= abs(tight - math.sqrt(k / n)) <= 1e-10
    report(1, "coherence floor sqrt(k/n) holds and is tight", ok)
    assert ok


# ---------------------------------------------------------------------------
# 2. Isotropy
# ---------------------------------------------------------------------------


def test_criterion_02_isotropy():
    u = dct2_operator(8)
    err = isotropy_error(u, 4, trials=10_000, seed=0)
    full = isotropy_error(u, 8, trials=10, seed=0)
    ok = err <= 0.5 and full == 0.0
    report(2, f"isotropy: 1e4-draw error {err:.3f} <= 0.5, m=n exactly 0", ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. Unitarity
# ---------------------------------------------------------------------------


def test_criterion_03_unitarity():
    ok = True
    for n in (1, 2, 8, 16, 64):
        for u in (UnitaryOperator("dft", n), dct2_operator(n)):
            defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(n))
            ok &= defect <= 1e-10
    report(3, "DFT/DCT unitarity defect <= 1e-10 for n in {1,2,8,16,64}", ok)
    assert ok


# ---------------------------------------------------------------------------
# 4. Gradient correctness
# ---------------------------------------------------------------------------


def _away_from_kinks(g, z, tol=1e-3):
    h = np.asarray(z, dtype=float)
    for w in g.weights[:-1]:
        h = w @ h
        if np.min(np.abs(h)) < tol:
            return False
        h = relu(h)
    return True


def test_criterion_04_gradients():
    u = dct2_operator(16)
    ok = True
    worst = 0.0
    for seed in range(20):
        g = seeded_network([3, 6, 8, 16], seed=seed)  # (k, d, n) = (3, 3, 16)
        a = sample_fixed(u, 10, seed=seed)
        rng = derive_rng(1000 + seed)
        z = rng.standard_normal(3)
        while not _away_from_kinks(g, z):
            z = rng.standard_normal(3)
        b = apply(a, forward(g, rng.standard_normal(3)))
        _, grad = objective_value_grad(g, a, b, z)
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (
                objective_value_grad(g, a, b, z + e)[0]
                - objective_value_grad(g, a, b, z - e)[0]
            ) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, rel)
        ok &= rel <= 1e-5
    report(4, f"backprop vs finite differences, worst rel err {worst:.2e} <= 1e-5", ok)
    assert ok


# ---------------------------------------------------------------------------
# 5. Difference network and bias augmentation
# ---------------------------------------------------------------------------


def test_criterion_05_exact_constructions():
    ok = True
    g = seeded_network([3, 7, 9, 12], seed=2, biases=True)
    aug = augment_biases(g)
    rng = derive_rng(3)
    for _ in range(100):
        z = rng.standard_normal(3)
        ok &= np.max(np.abs(forward(g, z) - forward(aug, np.append(z, 1.0)))) <= 1e-12
    gl = seeded_network([3, 8, 5], seed=4)
    gbar = difference_network(gl)
    for _ in range(100):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = forward(gbar, np.concatenate([x, y]))
        rhs = forward(gl, x) - forward(gl, y)
        scale = np.linalg.norm(forward(gl, x)) + np.linalg.norm(forward(gl, y)) + 1.0
        ok &= np.linalg.norm(lhs - rhs) <= 1e-12 * scale
    report(5, "bias augmentation and difference network exact to 1e-12", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. Noiseless exact recovery
# ---------------------------------------------------------------------------


def test_criterion_06_exact_recovery():
    g = seeded_network([4, 16, 32], seed=2)  # (k, d, n) = (4, 2, 32)
    u = dct2_operator(32)
    a = sample_fixed(u, 32, seed=2)
    successes = 0
    for t in range(20):
        z0 = derive_rng(11, t).standard_normal(4)
        x0 = forward(g, z0)
        b = apply(a, x0)
        res = recover(g, a, b, x0=x0, seed=spawn_seed(11, t, 1))
        successes += res["rre"] is not None and res["rre"] <= SUCCESS_RRE
    ok = successes >= 19
    report(6, f"full-measurement recovery {successes}/20 trials below 1e-5", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. Phase-transition monotonicity
# ---------------------------------------------------------------------------


def desk_phase_weights():
    """(inner weights, w_high, w_low) of the criterion's phase portrait."""
    rng = derive_rng(11, 0)
    w1 = rng.standard_normal((16, 4)) / 2.0
    w_low = np.linalg.qr(rng.standard_normal((64, 16)))[0]
    return [w1], dct2_operator(64).matrix[:16].T.copy(), w_low


def test_criterion_07_phase_monotonicity():
    cfg = PhaseConfig(recovery=RecoveryConfig(restarts=3))
    records = run_phase_portrait(*desk_phase_weights(), cfg, dct2_operator(64), 11)
    grid = phase_success_grid(records, cfg.betas, cfg.m_list)
    ok = True
    # Nondecreasing in m within two (pooled) binomial standard errors.
    for i in range(len(cfg.betas)):
        for j in range(len(cfg.m_list) - 1):
            p_bar = 0.5 * (grid[i, j] + grid[i, j + 1])
            se = math.sqrt(max(p_bar * (1 - p_bar), 0.0) / cfg.trials)
            ok &= grid[i, j + 1] >= grid[i, j] - 2 * se
    # Coherence ordering at the largest m: beta = 0 is the low-coherence column.
    cohs = {r["beta"]: r["coherence_heuristic"] for r in records}
    lo = min(cfg.betas, key=lambda b: cohs[b])
    hi = max(cfg.betas, key=lambda b: cohs[b])
    ok &= grid[cfg.betas.index(lo), -1] >= grid[cfg.betas.index(hi), -1]
    report(7, "success fraction nondecreasing in m; low coherence wins at max m", ok)
    assert ok


# ---------------------------------------------------------------------------
# 8. Subspace RIP concentration
# ---------------------------------------------------------------------------


def test_criterion_08_subspace_rip():
    u = dct2_operator(256)
    records, summaries, fit = run_subspace_rip(
        SubspaceRipConfig(256, 4, [32, 64, 128], delta=0.4, trials=300), u, seed=0
    )
    freqs = [s["exceed_freq"] for s in summaries]
    ok = all(a > b for a, b in zip(freqs, freqs[1:]))
    ok &= fit["r_squared"] >= 0.9
    for s in summaries:
        ok &= s["exceed_freq"] <= s["bound"] + 1e-12
    report(
        8,
        f"RIP tail strictly decreasing {['%.3f' % f for f in freqs]}, "
        f"R^2 {fit['r_squared']:.3f} >= 0.9, fitted-c bound dominates",
        ok,
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Typical coherence of Gaussian last layers
# ---------------------------------------------------------------------------


def test_criterion_09_typical_coherence():
    n, k = 256, 4
    u = dct2_operator(n)
    bound = typical_coherence_bound([k, k, n], gamma=0.0)
    floor = coherence_lower_bound(k, n)
    ok = True
    worst = 0.0
    for seed in range(50):
        rng = derive_rng(100, seed)
        g = GenerativeNetwork(
            weights=[rng.standard_normal((k, k)), rng.standard_normal((n, k))]
        )
        alpha = network_coherence_heuristic(g, u)
        worst = max(worst, alpha / bound)
        ok &= alpha / bound <= 3.0
        ok &= alpha >= floor * (1 - 1e-12)
    report(9, f"Gaussian-layer coherence/bound worst ratio {worst:.2f} <= 3", ok)
    assert ok


# ---------------------------------------------------------------------------
# 10. Regularizer effect
# ---------------------------------------------------------------------------


def test_criterion_10_regularizer_effect():
    u = dct2_operator(64)
    data = synth_dataset(64, 4, 2000, seed=5)
    widths = [8, 32, 64]
    lowered = 0
    for seed in range(5):
        a_plain = network_coherence_heuristic(
            train_vae(data, widths, TrainConfig(epochs=8), None, seed).decoder, u
        )
        a_reg = network_coherence_heuristic(
            train_vae(data, widths, TrainConfig(epochs=8), u, seed).decoder, u
        )
        lowered += a_reg < a_plain - 0.02
    ok = lowered >= 4

    # Measurement sweep for the committed pair (training seed 2).
    m_plain = train_vae(data, widths, TrainConfig(epochs=8), None, 2)
    m_reg = train_vae(data, widths, TrainConfig(epochs=8), u, 2)
    test_samples = synth_dataset(64, 4, 200, seed=6)
    sweep = SweepConfig(
        m_list=[6, 8, 10, 12, 16],
        trials=20,
        recovery=RecoveryConfig(restarts=5),
    )
    _, summaries = run_measurement_sweep(
        [("plain", m_plain), ("reg", m_reg)], test_samples, sweep, u, 3
    )
    by = {(s["model"], s["m"]): s["geo_mean_rre"] for s in summaries}
    sweep_ok = all(by[("reg", m)] <= by[("plain", m)] for m in sweep.m_list)
    ok &= sweep_ok
    report(
        10,
        f"coherence lowered by >= 0.02 in {lowered}/5 pairs; "
        f"regularized sweep dominates at every m: {sweep_ok}",
        ok,
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. Flattish-vector tail
# ---------------------------------------------------------------------------


def test_criterion_11_flattish_tail():
    n, m, draws = 256, 32, 100_000
    u = UnitaryOperator("dft", n)
    # Flat in measurement coordinates: xi = e_0 = U*(1/sqrt(n) * ones) for the
    # unitary DFT, so that ||xi||_U = 1/sqrt(n) and R = n*||xi||_U^2 = 1, the
    # informative regime.
    xi = np.eye(n)[0]
    uxi_sq = np.abs(u.apply(xi)) ** 2
    r = n * float(np.max(np.abs(u.apply(xi)))) ** 2
    rng = derive_rng(0)
    masks = rng.random((draws, n)) < m / n
    vals = (n / m) * (masks @ uxi_sq)  # ||A xi||_2^2 per draw
    ok = True
    lines = []
    for t in (1.5, 2.0, 3.0):
        emp = float(np.mean(vals >= t))
        bound = cramer_chernoff_tail(t, m, r)
        ok &= emp <= bound
        lines.append(f"t={t}: {emp:.4f}<={bound:.4f}")
    report(11, "Chernoff tail dominates empirical (" + ", ".join(lines) + ")", ok)
    assert ok


# ---------------------------------------------------------------------------
# 12. Region-bound formulas
# ---------------------------------------------------------------------------


def test_criterion_12_region_bounds():
    ok = log_region_bound([3, 10]) == 0.0
    ok &= abs(log_region_bound([2, 4, 4, 8]) - 4 * math.log(4 * math.e)) < 1e-12
    ok &= orthant_bound(4, 2) == 24
    ok &= orthant_bound(5, 5) == 32
    ok &= orthant_bound(3, 1) == 6
    report(12, "closed-form region bounds match recorded values exactly", ok)
    assert ok


# ---------------------------------------------------------------------------
# 13. Reproducibility of CLI experiments
# ---------------------------------------------------------------------------


def _csv_bytes(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as f:
                out[name] = f.read()
    return out


def test_criterion_13_cli_reproducibility(tmp_path):
    # Small artifacts for the config-driven experiments.
    rng = derive_rng(0)
    w1 = rng.standard_normal((4, 2))
    w_low = np.linalg.qr(rng.standard_normal((16, 4)))[0]
    w_high = dct2_operator(16).matrix[:4].T.copy()
    for name, w in [("w1", w1), ("w_low", w_low), ("w_high", w_high)]:
        save_matrix(w, str(tmp_path / f"{name}.json"))
    phase_cfg = {
        "inner_weights": [str(tmp_path / "w1.json")],
        "w_high": str(tmp_path / "w_high.json"),
        "w_low": str(tmp_path / "w_low.json"),
        "unitary": "dct",
        "betas": [0.0, 1.0],
        "m_list": [4, 8],
        "trials": 3,
        "recovery": {"max_iters": 200},
    }
    with open(tmp_path / "phase.json", "w") as f:
        json.dump(phase_cfg, f)

    data = synth_dataset(16, 2, 100, seed=1)
    model = train_vae(data, [2, 8, 16], TrainConfig(epochs=1, batch_size=32), None, 0)
    save_vae(model, str(tmp_path / "model.json"))
    sweep_cfg = {
        "models": {"m0": str(tmp_path / "model.json")},
        "unitary": "dct",
        "test_data": {"kind": "synth", "k_true": 2, "count": 50, "seed": 2},
        "m_list": [8, 16],
        "trials": 3,
        "recovery": {"max_iters": 200},
    }
    with open(tmp_path / "sweep.json", "w") as f:
        json.dump(sweep_cfg, f)
    net = GenerativeNetwork(weights=[w1, rng.standard_normal((16, 4))])
    save_network(net, str(tmp_path / "net.json"))

    experiments = {
        "phase": ["phase", "--config", str(tmp_path / "phase.json")],
        "sweep": ["sweep", "--config", str(tmp_path / "sweep.json")],
        "rip": [
            "rip", "--weights", str(tmp_path / "net.json"), "--unitary", "dct",
            "--m-list", "8,16", "--delta", "0.5",
            "--chord-samples", "20", "--trials", "5",
        ],
        "subspace-rip": [
            "subspace-rip", "--unitary", "dct", "--n", "32", "--k", "3",
            "--m-list", "8,16", "--trials", "20",
        ],
    }
    ok = True
    for name, argv in experiments.items():
        runs = []
        for threads in (1, 4, 1):  # rerun at the end to check determinism too
            out_dir = tmp_path / f"{name}-{len(runs)}"
            cli.main(["--seed", "7", "--threads", str(threads),
                      "--out-dir", str(out_dir)] + argv)
            runs.append(_csv_bytes(str(out_dir)))
        same = runs[0] == runs[1] == runs[2] and len(runs[0]) > 0
        ok &= same
    report(13, "CSV output byte-identical across reruns and 1 vs 4 threads", ok)
    assert ok


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-s"]))
