import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gcs.errors import DimensionMismatch, DomainError, check_counts
from gcs.gnn import GenerativeNetwork, forward
from gcs.harness import (
    PhaseConfig,
    RRE_FLOOR,
    RipConfig,
    SubspaceRipConfig,
    SweepConfig,
    emit_csv,
    emit_svg_heatmap,
    emit_svg_scatter,
    final_layer,
    fit_subspace_tail,
    geometric_stats,
    phase_success_grid,
    run_indexed,
    run_measurement_sweep,
    run_phase_portrait,
    run_rip_check,
    run_subspace_rip,
)
from gcs.recovery import RecoveryConfig, recover
from gcs.sampling import (
    MIN_M,
    apply,
    check_grid,
    derive_rng,
    sample_bernoulli,
    sample_fixed,
    spawn_seed,
)
from gcs.training import TrainConfig, synth_dataset, train_vae
from gcs.transforms import UnitaryOperator, dct2_operator


def parse_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_geometric_stats_definition():
    gmean, gsd, floored = geometric_stats([1e-4, 1e-6])
    assert gmean == pytest.approx(1e-5)
    assert gsd == pytest.approx(math.exp(np.std([math.log(1e-4), math.log(1e-6)])))
    assert floored == 0


def test_geometric_stats_floors_zeros():
    gmean, _, floored = geometric_stats([0.0, 1e-16])
    assert floored == 1
    assert gmean == pytest.approx(RRE_FLOOR)
    with pytest.raises(DomainError):
        geometric_stats([])


def test_run_indexed_order():
    assert run_indexed(lambda i: i * i, 50) == [i * i for i in range(50)]


def test_emit_parse_csv_roundtrip(tmp_path):
    records = [
        {"m": 8, "rre": 0.125, "success": True},
        {"m": 16, "rre": 3e-7, "success": False},
    ]
    path = tmp_path / "r.csv"
    emit_csv(records, str(path))
    back = parse_csv(str(path))
    assert back[0] == {"m": "8", "rre": "0.125", "success": "1"}
    assert float(back[1]["rre"]) == 3e-7
    with pytest.raises(DomainError, match="refusing to write an empty CSV"):
        emit_csv([], str(tmp_path / "empty.csv"))


def test_csv_quotes_a_comma_and_keeps_plain_rows_bytes(tmp_path):
    records = [
        {"model": "vae, reg", "m": 8, "rre": 3e-7},
        {"model": "unreg", "m": 16, "rre": 0.5},
    ]
    path = tmp_path / "r.csv"
    emit_csv(records, str(path))
    assert path.read_bytes() == b'model,m,rre\n"vae, reg",8,3e-07\nunreg,16,0.5\n'
    assert parse_csv(str(path)) == [
        {"model": "vae, reg", "m": "8", "rre": "3e-07"},
        {"model": "unreg", "m": "16", "rre": "0.5"},
    ]


def test_emit_csv_deterministic_bytes(tmp_path):
    records = [{"a": 1.0 / 3.0, "b": i} for i in range(5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, str(p1))
    emit_csv(records, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# The unitary and seed every tiny phase portrait runs with.
PHASE_U, PHASE_SEED = dct2_operator(8), 1


def tiny_phase_weights():
    """(inner weights, w_high, w_low) of every tiny phase portrait."""
    rng = derive_rng(0)
    w1 = rng.standard_normal((4, 2))
    w_low = np.linalg.qr(rng.standard_normal((8, 4)))[0]
    return [w1], dct2_operator(8).matrix[:4].T.copy(), w_low


INNER, W_HIGH, W_LOW = tiny_phase_weights()


def tiny_phase_config(trials=3):
    return PhaseConfig(
        betas=[0.0, 1.0],
        m_list=[4, 8],
        trials=trials,
        recovery=RecoveryConfig(max_iters=300),
    )


def test_phase_portrait_records_and_trial_prefix_invariance():
    r1 = run_phase_portrait(INNER, W_HIGH, W_LOW, tiny_phase_config(), PHASE_U, PHASE_SEED)
    # Per-trial streams: two trials per cell repeat the first two of three.
    r2 = run_phase_portrait(INNER, W_HIGH, W_LOW, tiny_phase_config(trials=2), PHASE_U,
                            PHASE_SEED)
    assert r2 == [r for r in r1 if r["trial"] < 2]
    assert len(r1) == 2 * 2 * 3
    assert [r["beta"] for r in r1[:6]] == [0.0] * 6  # stable (beta, m, trial) order
    assert [(r["m"], r["trial"]) for r in r1[:6]] == [(4, 0), (4, 1), (4, 2), (8, 0), (8, 1), (8, 2)]
    assert list(r1[0]) == ["beta", "coherence_heuristic", "m", "trial", "rre", "success", "seed"]
    grid = phase_success_grid(r1, [0.0, 1.0], [4, 8])
    assert grid.shape == (2, 2)
    assert np.all((0.0 <= grid) & (grid <= 1.0))


def test_phase_portrait_cells_equal_per_trial_recovery():
    # All trials are recovered in one batch; every record must be what
    # recovering that trial alone from its own seed streams gives.
    cfg = tiny_phase_config()
    records = run_phase_portrait(INNER, W_HIGH, W_LOW, cfg, PHASE_U, PHASE_SEED)
    for rec in records:
        bi, mi, t = cfg.betas.index(rec["beta"]), cfg.m_list.index(rec["m"]), rec["trial"]
        net = GenerativeNetwork(weights=INNER + [final_layer(W_HIGH, W_LOW, rec["beta"])])
        a = sample_fixed(PHASE_U, rec["m"], spawn_seed(PHASE_SEED, bi, mi, t))
        x0 = forward(net, derive_rng(PHASE_SEED, bi, mi, t, 1).standard_normal(net.code_dim))
        res = recover(net, a, apply(a, x0), cfg.recovery, x0=x0,
                      seed=spawn_seed(PHASE_SEED, bi, mi, t, 2))
        assert (rec["rre"], rec["seed"]) == (res["rre"], a.seed)


def test_phase_portrait_checks_every_beta_before_any_coherence(monkeypatch):
    import gcs.harness

    def no_coherence(*args):
        raise AssertionError("a coherence heuristic was taken")

    monkeypatch.setattr(gcs.harness, "network_coherence_heuristic", no_coherence)
    cfg = replace(tiny_phase_config(), betas=[0.0, 1e155, 1.7e308])
    # W_beta at 1e155 is finite, but its squared norm overflows.
    assert np.isfinite(1e155 * W_HIGH + (1.0 - 1e155) * W_LOW).all()
    with pytest.raises(DomainError, match=r"^betas entry 1e\+155 overflows W_beta = "):
        run_phase_portrait(INNER, W_HIGH, W_LOW, cfg, PHASE_U, PHASE_SEED)
    np.testing.assert_array_equal(final_layer(W_HIGH, W_LOW, 0.25),
                                  0.25 * W_HIGH + 0.75 * W_LOW)


def test_check_grid():
    # The one check of an m grid; n is optional. Its single-m ([m]) and
    # sampler-choice cases are in test_sampling.py::test_check_m_and_sampler_for.
    assert check_grid("fixed", [1, 8], 8) is sample_fixed
    assert check_grid("bernoulli", [2, 8], 8) is sample_bernoulli
    assert check_grid("fixed", [1, 9]) is sample_fixed
    for model, m in [("fixed", 0), ("bernoulli", 1)]:
        with pytest.raises(DomainError, match=f"^need {MIN_M[model]} <= m <= n for {model} "
                                              f"sampling, got m={m}$"):
            check_grid(model, [4, m])
    with pytest.raises(DomainError, match="need 1 <= m <= n for fixed sampling, got m=9, n=8"):
        check_grid("fixed", [4, 9], 8)
    with pytest.raises(DomainError, match="need 2 <= m <= n for bernoulli sampling, got m=1"):
        check_grid("bernoulli", [1, 4], 8)
    for n in (8, None):
        with pytest.raises(DomainError, match="the m grid is empty"):
            check_grid("fixed", [], n)
        with pytest.raises(DomainError, match="m_list must be a list of integers, got 4"):
            check_grid("fixed", 4, n)
        check_grid("fixed", [np.int64(4)], n)
        for m in (4.0, "4", True, None):
            with pytest.raises(DomainError, match=f"m must be an integer, got {m!r}"):
                check_grid("fixed", [2, m], n)
    with pytest.raises(DomainError, match="trials must be >= 1, got 0"):
        check_counts(trials=0)
    check_counts(trials=np.int64(2), chord_samples=1)
    for value in (1.5, "2", True, 2.0):
        with pytest.raises(DomainError, match=f"trials must be an integer, got {value!r}"):
            check_counts(trials=value)
    with pytest.raises(DomainError, match="chord_samples must be >= 1, got 0"):
        check_counts(trials=1, chord_samples=0)


@pytest.mark.parametrize("m_list, m", [([8, 8], 8), ([4, 8, 4], 4), ([8, np.int64(8)], 8)])
def test_check_grid_rejects_a_repeated_m(m_list, m):
    # Records and summaries are keyed by m: a repeated m would pool its trials.
    with pytest.raises(DomainError, match=f"m = {m} appears twice in the m grid"):
        check_grid("fixed", m_list)


def test_repeated_grid_entries_fail_before_any_trial(monkeypatch):
    rng = derive_rng(5)
    g = GenerativeNetwork(weights=[rng.standard_normal((4, 2)), rng.standard_normal((8, 4))])
    for name in ("run_indexed", "derive_rng", "ChordSampler", "recover_batch"):
        monkeypatch.setattr(f"gcs.harness.{name}", no_compute)
    with pytest.raises(DomainError, match="m = 8 appears twice in the m grid"):
        run_rip_check(g, RipConfig([8, 8], 0.5, 10, 2), dct2_operator(8), 0)
    with pytest.raises(DomainError, match="m = 16 appears twice in the m grid"):
        SubspaceRipConfig(32, 3, [16, 16], 0.4, trials=2)
    with pytest.raises(DomainError, match="m = 8 appears twice in the m grid"):
        run_phase_portrait(INNER, W_HIGH, W_LOW,
                           replace(tiny_phase_config(), m_list=[8, 8], trials=2), PHASE_U,
                           PHASE_SEED)
    with pytest.raises(DomainError, match="m = 8 appears twice in the m grid"):
        run_measurement_sweep([], np.zeros((1, 16)), SweepConfig(m_list=[8, 8], trials=1),
                              dct2_operator(16), 0)


def test_phase_config_validation():
    cfg = tiny_phase_config()
    with pytest.raises(DimensionMismatch):
        run_phase_portrait(INNER, W_HIGH, W_LOW[:, :2], cfg, PHASE_U, PHASE_SEED)
    with pytest.raises(DomainError):
        PhaseConfig(trials=0)
    for cls in (PhaseConfig, SweepConfig):
        with pytest.raises(DomainError, match="^unknown sampling model 'walsh' "
                                              r"\(expected fixed or bernoulli\)$"):
            cls(m_list=[8], model="walsh")
    for betas in ([], 0.5):
        with pytest.raises(DomainError, match="betas must be a nonempty list of numbers"):
            replace(cfg, betas=betas)
    for betas in ([0.5, 0.5], [0, 0.5, 0.0]):
        with pytest.raises(DomainError, match="betas must not repeat"):
            replace(cfg, betas=betas)
    for betas, rule in [([0.0, math.nan], "finite"), ([math.inf], "finite"),
                        ([0.5, -math.inf], "finite"), ([10**400], "finite"),
                        (["0.5"], "a number"), ([0.5, True], "a number")]:
        with pytest.raises(DomainError, match=f"^each betas entry must be {rule}, "
                                              f"got {re.escape(repr(betas[-1]))}$"):
            replace(cfg, betas=betas)


def test_sweep_config_rejects_zero_trials():
    with pytest.raises(DomainError, match="trials must be >= 1, got 0"):
        SweepConfig(m_list=[8], trials=0)


def test_measurement_sweep_shared_targets():
    u = dct2_operator(16)
    data = synth_dataset(16, 2, 100, seed=1)
    model = train_vae(data, [2, 8, 16], TrainConfig(epochs=2, batch_size=32), u, 0)
    sw = SweepConfig(m_list=[8, 16], trials=2, recovery=RecoveryConfig(max_iters=300))
    records, summaries = run_measurement_sweep([("a", model), ("b", model)], data, sw, u, 2)
    # Identical models share targets and measurement seeds per (m, trial), so
    # their per-trial errors coincide and only the solver seed stream differs
    # by model index.
    assert len(records) == 2 * 2 * 2
    assert len(summaries) == 4
    for s in summaries:
        assert s["geo_mean_rre"] > 0


def test_cell_summaries_equal_the_cells_found_by_key():
    # Both summaries read each cell from the grid order; each must be what
    # collecting the cell's records by their (row, m) keys gives.
    cfg = replace(tiny_phase_config(), m_list=[2, 4, 8])
    records = run_phase_portrait(INNER, W_HIGH, W_LOW, cfg, PHASE_U, PHASE_SEED)
    want = np.zeros((len(cfg.betas), len(cfg.m_list)))
    for i, beta in enumerate(cfg.betas):
        for j, m in enumerate(cfg.m_list):
            cell = [r["success"] for r in records if (r["beta"], r["m"]) == (beta, m)]
            want[i, j] = sum(cell) / len(cell)
    np.testing.assert_array_equal(phase_success_grid(records, cfg.betas, cfg.m_list), want)
    assert len(np.unique(want)) > 2
    u = dct2_operator(16)
    data = synth_dataset(16, 2, 100, seed=1)
    models = [(name, train_vae(data, [2, 8, 16],
                               TrainConfig(epochs=1, batch_size=32), u, seed))
              for name, seed in (("a", 0), ("b", 1))]
    sw = SweepConfig(m_list=[4, 8, 16], trials=3, recovery=RecoveryConfig(max_iters=300))
    records, summaries = run_measurement_sweep(models, data, sw, u, 2)
    want = []
    for name, _ in models:
        for m in sw.m_list:
            vals = [r["rre"] for r in records if r["model"] == name and r["m"] == m]
            gmean, gsd, floored = geometric_stats(vals)
            want.append({"model": name, "m": m, "geo_mean_rre": gmean, "geo_sd_rre": gsd,
                         "floored": floored})
    assert summaries == want
    assert len({s["geo_mean_rre"] for s in want}) == len(want)


def test_rip_check_full_sampling_zero_deviation():
    rng = derive_rng(3)
    g = GenerativeNetwork(
        weights=[rng.standard_normal((6, 3)), rng.standard_normal((16, 6))]
    )
    u = dct2_operator(16)
    records, summaries = run_rip_check(
        g, RipConfig([16], delta=0.5, chord_samples=50, trials=5, model="fixed"), u, seed=0
    )
    assert all(r["deviation"] < 1e-10 for r in records)
    assert summaries[0]["exceed_freq"] == 0.0


def test_rip_check_monotone_exceedance():
    rng = derive_rng(4)
    g = GenerativeNetwork(
        weights=[rng.standard_normal((6, 3)), rng.standard_normal((128, 6))]
    )
    u = UnitaryOperator("dft", 128)
    _, summaries = run_rip_check(
        g, RipConfig([16, 64, 128], delta=0.5, chord_samples=100, trials=60), u, seed=0
    )
    freqs = [s["exceed_freq"] for s in summaries]
    se = 2 * math.sqrt(0.25 / 60)
    assert all(a >= b - se for a, b in zip(freqs, freqs[1:]))


def test_rip_check_on_a_biased_network():
    # Chords of a linear-final network are W_d (h(z1) - h(z2)) with the inner
    # biases inside h and the final bias cancelled, so a biased network runs
    # as a bias-free one does: against chords formed from full forward
    # differences, under a real and a complex unitary.
    rng = derive_rng(5)
    g = GenerativeNetwork(weights=[rng.standard_normal((6, 2)), rng.standard_normal((16, 6))],
                          biases=[rng.standard_normal(6), rng.standard_normal(16)])
    cfg = RipConfig([4, 8, 16], 0.5, chord_samples=30, trials=3, model="fixed")
    for u in (dct2_operator(16), UnitaryOperator("dft", 16)):
        records, _ = run_rip_check(g, cfg, u, seed=6)
        want = []
        for mi, m in enumerate(cfg.m_list):
            for t in range(cfg.trials):
                a = sample_fixed(u, m, spawn_seed(6, mi, t))
                draw = derive_rng(6, mi, t, 1)
                z1, z2 = (draw.standard_normal((2, cfg.chord_samples)) for _ in range(2))
                chords = forward(g, z1) - forward(g, z2)
                unit = chords / np.linalg.norm(chords, axis=0)
                want.append(np.max(np.abs(np.linalg.norm(apply(a, unit), axis=0) - 1.0)))
        got = [r["deviation"] for r in records]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert max(got) > 0.1


def no_compute(*args, **kwargs):
    raise AssertionError("the harness computed before rejecting its input")


@pytest.mark.parametrize("chord_samples, trials, message", [
    (10, 0, "trials must be >= 1, got 0"),
    (0, 2, "chord_samples must be >= 1, got 0"),
])
def test_rip_check_rejects_empty_counts(monkeypatch, chord_samples, trials, message):
    rng = derive_rng(5)
    g = GenerativeNetwork(weights=[rng.standard_normal((4, 2)), rng.standard_normal((8, 4))])
    monkeypatch.setattr("gcs.harness.ChordSampler", no_compute)
    with pytest.raises(DomainError, match=message):
        run_rip_check(g, RipConfig([8], 0.5, chord_samples, trials), dct2_operator(8), 0)


@pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0, 1.5, float("nan"), float("inf")])
def test_rip_checks_reject_delta_outside_unit_interval(monkeypatch, delta):
    # The RIP is stated for 0 < delta < 1; outside it every trial "exceeds"
    # (delta <= 0) or none can, and a NaN compares false everywhere. Only
    # a finite delta > 0 reaches the test of the upper end.
    rng = derive_rng(5)
    g = GenerativeNetwork(weights=[rng.standard_normal((4, 2)), rng.standard_normal((8, 4))])
    monkeypatch.setattr("gcs.harness.ChordSampler", no_compute)
    monkeypatch.setattr("gcs.harness.derive_rng", no_compute)
    rule = ("positive" if delta <= 0 else r"in \(0, 1\)" if 1 <= delta < math.inf
            else "finite")
    message = f"^delta must be {rule}, got {delta}$"
    with pytest.raises(DomainError, match=message):
        run_rip_check(g, RipConfig([8], delta, 10, 2), dct2_operator(8), 0)
    with pytest.raises(DomainError, match=message):
        SubspaceRipConfig(32, 3, [16], delta, trials=4)


@pytest.mark.parametrize("m_list, trials, error, message", [
    ([0, 16], 4, DomainError, "got m=0, n=32"),
    ([40], 4, DomainError, "got m=40, n=32"),
    ([], 4, DomainError, "the m grid is empty"),
    ([16], 0, DomainError, "trials must be >= 1, got 0"),
])
def test_subspace_rip_checks_its_grid_and_trials(monkeypatch, m_list, trials, error, message):
    # The config holds n, so it checks every m against n when it is built.
    monkeypatch.setattr("gcs.harness.derive_rng", no_compute)
    with pytest.raises(error, match=message):
        SubspaceRipConfig(32, 3, m_list, 0.4, trials=trials)


@pytest.mark.parametrize("k, message", [
    (0, "need 1 <= k <= n, got k=0"), (33, "need 1 <= k <= n, got k=33"),
    (2.5, "k must be an integer, got 2.5"),
])
def test_subspace_rip_checks_k_before_drawing(monkeypatch, k, message):
    monkeypatch.setattr("gcs.harness.derive_rng", no_compute)
    with pytest.raises(DomainError, match=message):
        SubspaceRipConfig(32, k, [16], 0.4, trials=4)


@pytest.mark.parametrize("n", [16, 64])
def test_subspace_rip_rejects_a_unitary_of_another_n(monkeypatch, n):
    # The subspace lives in R^cfg.n; a u of another size fails before any draw.
    monkeypatch.setattr("gcs.harness.run_indexed", no_compute)
    monkeypatch.setattr("gcs.harness.derive_rng", no_compute)
    with pytest.raises(DimensionMismatch, match=f"^the unitary is 32 x 32, the problem's n is {n}$"):
        run_subspace_rip(SubspaceRipConfig(n, 3, [8], 0.4, trials=2), dct2_operator(32), 0)


def test_sweep_rejects_a_unitary_of_another_n(monkeypatch):
    # The test data and the decoders live in R^16; a u of another size fails
    # before any trial is built.
    data = synth_dataset(16, 2, 100, seed=1)
    model = train_vae(data, [2, 8, 16], TrainConfig(epochs=1, batch_size=32), None, 0)
    for name in ("run_indexed", "derive_rng", "recover_batch"):
        monkeypatch.setattr(f"gcs.harness.{name}", no_compute)
    with pytest.raises(DimensionMismatch, match="^the unitary is 32 x 32, the problem's n is 16$"):
        run_measurement_sweep([("a", model)], data, SweepConfig(m_list=[8], trials=2),
                              dct2_operator(32), 0)


@pytest.mark.parametrize("shape", [(16,), (2, 16, 1), ()], ids=["1-D", "3-D", "0-D"])
def test_sweep_rejects_test_data_that_is_not_2d(shape):
    # Test samples of any other rank fail with one DimensionMismatch naming
    # their shape, before their count or dimension is read.
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"test data must be (count, n), got shape {shape}")):
        run_measurement_sweep([], np.zeros(shape), SweepConfig(m_list=[8], trials=2),
                              dct2_operator(16), 0)


def test_subspace_rip_full_sampling_tiny_deviation():
    u = dct2_operator(32)
    records, summaries, fit = run_subspace_rip(SubspaceRipConfig(32, 3, [32], 0.4, trials=4), u, 0)
    assert all(r["deviation"] < 1e-10 for r in records)
    assert summaries[0]["exceed_freq"] == 0.0


def test_subspace_rip_decreasing_and_bound(tmp_path):
    u = dct2_operator(128)
    records, summaries, fit = run_subspace_rip(
        SubspaceRipConfig(128, 4, [16, 32, 64], 0.4, trials=150), u, seed=0
    )
    freqs = [s["exceed_freq"] for s in summaries]
    assert freqs[0] > freqs[-1]
    for s in summaries:
        assert s["exceed_freq"] <= s["bound"] + 1e-12
    assert fit["alpha"] >= math.sqrt(4 / 128) - 1e-12


def test_fit_subspace_tail_recovers_synthetic_constant():
    # Frequencies manufactured from the bound formula itself must be fitted
    # with R^2 = 1 and the same constant.
    k, n, alpha, delta, c = 4, 128, 0.3, 0.4, 2.5
    summaries = [
        {"m": m, "exceed_freq": 2 * k * math.exp(-c * delta**2 * m / (alpha**2 * n))}
        for m in (16, 32, 64)
    ]
    fit = fit_subspace_tail(summaries, k, n, alpha, delta)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["c"] == pytest.approx(c, rel=1e-9)


def test_fit_subspace_tail_degenerate():
    fit = fit_subspace_tail([{"m": 8, "exceed_freq": 0.0}], 2, 16, 0.5, 0.4)
    assert fit == {"c": 0.0, "r_squared": None, "slope": None}


def test_svg_emitters(tmp_path):
    from xml.dom import minidom

    def texts(path):
        nodes = minidom.parse(str(path)).getElementsByTagName("text")
        return [node.firstChild.data for node in nodes]

    # Labels and titles are written as text, escaped where they hold markup.
    grid = np.array([[0.0, 0.5], [1.0, 0.25]])
    hp = tmp_path / "h.svg"
    emit_svg_heatmap(grid, str(hp), row_labels=["a", "b<c"], col_labels=["1", "&2"],
                     title="x > y")
    text = hp.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert texts(hp) == ["x > y", "a", "b<c", "1", "&2"]
    sp = tmp_path / "s.svg"
    emit_svg_scatter(
        [{"label": "x", "x": [1, 2, 3], "y": [1e-1, 1e-3, 1e-5]},
         {"label": "a&b <reg>", "x": [1, 2], "y": [1e-2, 1e-4]}], str(sp), title="<rre>"
    )
    assert "<svg" in sp.read_text()
    assert texts(sp) == ["<rre>", "x", "a&b <reg>"]
    empty = tmp_path / "e.svg"
    with pytest.raises(DomainError, match="^refusing to render an empty heatmap$"):
        emit_svg_heatmap(np.zeros((0, 2)), str(empty), row_labels=[], col_labels=["1", "2"])
    with pytest.raises(DomainError, match="^refusing to render an empty plot$"):
        emit_svg_scatter([], str(empty))
    assert not empty.exists()


def assert_sweep_equals_per_trial_recovery(models, data, sw, u, seed):
    """Every sweep record is what recovering that trial alone with its own
    decoder gives, in (model, m, trial) order."""
    records, _ = run_measurement_sweep(models, data, sw, u, seed)
    names = [name for name, _ in models]
    assert [(r["model"], r["m"], r["trial"]) for r in records] == [
        (name, m, t) for name in names for m in sw.m_list for t in range(sw.trials)
    ]
    for rec in records:
        gi = names.index(rec["model"])
        mi, t = sw.m_list.index(rec["m"]), rec["trial"]
        model = models[gi][1]
        rng = derive_rng(seed, mi, t)
        x_sharp = data[int(rng.integers(data.shape[0]))]
        x0 = forward(model.decoder, model.encode(x_sharp)[0])
        a = sample_fixed(u, rec["m"], spawn_seed(seed, mi, t, 1))
        res = recover(model.decoder, a, apply(a, x0), sw.recovery, x0=x0,
                      seed=spawn_seed(seed, gi, mi, t, 2))
        assert (rec["rre"], rec["seed"]) == (res["rre"], a.seed)


def test_measurement_sweep_mixed_decoders_equal_per_trial_recovery():
    # Two different decoders of one shape, recovered in one batch.
    u = dct2_operator(16)
    data = synth_dataset(16, 2, 100, seed=1)
    models = [(name, train_vae(data, [2, 8, 16],
                               TrainConfig(epochs=2, batch_size=32), u, seed))
              for name, seed in (("a", 0), ("b", 1))]
    sw = SweepConfig(m_list=[8, 12], trials=2, recovery=RecoveryConfig(max_iters=300, restarts=2))
    assert_sweep_equals_per_trial_recovery(models, data, sw, u, 2)


def test_measurement_sweep_mixed_architectures_equal_per_trial_recovery():
    # Decoders of other widths share one sweep.
    u = dct2_operator(16)
    data = synth_dataset(16, 2, 100, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=32)
    models = [("a", train_vae(data, [2, 8, 16], cfg, u, 0)),
              ("b", train_vae(data, [2, 6, 16], cfg, u, 0)),
              ("c", train_vae(data, [2, 4, 8, 16], cfg, u, 0))]
    sw = SweepConfig(m_list=[8, 12], trials=2, recovery=RecoveryConfig(max_iters=300, restarts=2))
    assert_sweep_equals_per_trial_recovery(models, data, sw, u, 2)


def spy(monkeypatch, name):
    """Record the positional arguments of every call of gcs.harness.<name>."""
    import gcs.harness

    calls, fn = [], getattr(gcs.harness, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(gcs.harness, name, recorded)
    return calls


@pytest.mark.parametrize("experiment", ["phase", "sweep"])
def test_recovery_experiments_build_and_recover_one_trial_grid(monkeypatch, experiment):
    # One job per (row, m, trial) and one recover_batch call over the grid,
    # in (row, m, trial) order: each problem's solver seed names its place.
    if experiment == "phase":
        cfg, u, seed = tiny_phase_config(), PHASE_U, PHASE_SEED
        nets = [GenerativeNetwork(weights=INNER + [final_layer(W_HIGH, W_LOW, beta)])
                for beta in cfg.betas]
    else:
        u = dct2_operator(16)
        data = synth_dataset(16, 2, 100, seed=1)
        models = [(name, train_vae(data, [2, 8, 16],
                                   TrainConfig(epochs=1, batch_size=32), u, seed))
                  for name, seed in (("a", 0), ("b", 1))]
        cfg, seed = SweepConfig(m_list=[8, 12], trials=2, recovery=RecoveryConfig(max_iters=300)), 2
        nets = [model.decoder for _, model in models]
    jobs, batches = spy(monkeypatch, "run_indexed"), spy(monkeypatch, "recover_batch")
    if experiment == "phase":
        run_phase_portrait(INNER, W_HIGH, W_LOW, cfg, u, seed)
    else:
        run_measurement_sweep(models, data, cfg, u, seed)
    grid = [(i, mi, t) for i in range(len(nets)) for mi in range(len(cfg.m_list))
            for t in range(cfg.trials)]
    assert [count for _, count in jobs] == [len(grid)]
    assert len(batches) == 1
    problems, config = batches[0]
    assert len(problems) == len(grid)
    gs, ops, bs, x0s, seeds = zip(*problems)
    assert list(seeds) == [spawn_seed(seed, *ix, 2) for ix in grid]
    assert config is cfg.recovery
    assert [op.num_rows for op in ops] == [cfg.m_list[mi] for _, mi, _ in grid]
    for g, (i, _, _) in zip(gs, grid):
        assert all(np.array_equal(w, v) for w, v in zip(g.weights, nets[i].weights))
