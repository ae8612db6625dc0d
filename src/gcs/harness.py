"""Experiment harness: phase portrait, measurement sweep, RIP checks, and
CSV/SVG emission.

Every trial derives its own RNG stream from (seed, grid indices, trial), so a
trial's output does not depend on how many trials run: a run with fewer trials
writes a prefix of each cell's records. All four experiments run on one trial
grid, (row, m, trial) in that order with one job per trial on `run_indexed`,
in the calling thread. The phase portrait's rows are its betas and the
sweep's its models; both then recover every trial in one lockstep batch
(`_recover_grid`). The two RIP checks run the same grid with one row.
Experiments default to the fixed-permutation sampling model; RIP checks
default to Bernoulli. The sweep and the subspace RIP check size their
unitary against the problem's n by `transforms.check_unitary_n`, the one
size rule of the toolkit, before any draw.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .coherence import ChordSampler, network_coherence_heuristic, subspace_coherence
from .errors import DimensionMismatch, DomainError, check_array_size, check_counts, check_number
from .gnn import GenerativeNetwork, forward
from .linops import qr_thin
# The experiments call recover_batch; harness.recover stays bound because
# perfbench/instrument.py wraps it.
from .recovery import SUCCESS_RRE, RecoveryConfig, recover, recover_batch  # noqa: F401
from .sampling import apply, bernoulli_rows, check_m, derive_rng, sampler_for, spawn_seed
# Not called here; bound because perfbench/instrument.py wraps these names.
from .sampling import sample_bernoulli, sample_fixed  # noqa: F401
from .training import VaeModel
from .transforms import UnitaryOperator, check_unitary_n

RRE_FLOOR = 1e-16


# threads is ignored; kept because perfbench/instrument.py's wrappers pass it on.
def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Apply fn to 0..count-1 in index order, in one thread."""
    return [fn(i) for i in range(count)]


def check_trial_grid(m_list, trials, model: str) -> None:
    """Raise DomainError unless m_list is a nonempty list of distinct integers,
    trials an integer >= 1 and model a sampling model: the half of the trial
    grid's check that needs no n, which every config runs when it is built,
    before any file is read. Records and summaries are keyed by m, so an m
    may appear only once.
    """
    if not isinstance(m_list, list):
        raise DomainError(f"m_list must be a list of integers, got {m_list!r}")
    if not m_list:
        raise DomainError("the m grid is empty")
    for i, m in enumerate(m_list):
        check_number("m", m, integer=True)
        if m in m_list[:i]:
            raise DomainError(f"m = {m} appears twice in the m grid")
    check_counts(trials=trials)
    sampler_for(model)  # rejects an unknown sampling model


def check_grid(model: str, m_list: list, n: int):
    """The sampler for a sampling model, after checking every grid m against
    n: the half of the trial grid's check that needs n, which each driver
    runs before any cell computes."""
    for m in m_list:
        check_m(model, m, n)
    return sampler_for(model)


def geometric_stats(values) -> tuple[float, float, int]:
    """Geometric mean and geometric SD; zeros floored at RRE_FLOOR.

    Returns (gmean, gsd, floored_count); gsd is exp(std(log values)).
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise DomainError("no values")
    floored = int(np.count_nonzero(vals < RRE_FLOOR))
    logs = np.log(np.maximum(vals, RRE_FLOOR))
    return float(np.exp(np.mean(logs))), float(np.exp(np.std(logs))), floored


def _format_value(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "1" if v else "0"
    if isinstance(v, float) or isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


def emit_csv(records: list[dict], path: str) -> None:
    """Write records under a header of the first record's keys; empty input errors."""
    if not records:
        raise DomainError("refusing to write an empty CSV")
    columns = list(records[0])
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_value(rec[c]) for c in columns] for rec in records)


def _grid(rows: int, m_list: list, trials: int, fn) -> list:
    """fn(row, m index, trial) over the grid in that order, one job each on
    `run_indexed`."""

    def job(j):
        i, k = divmod(j, len(m_list) * trials)
        return fn(i, *divmod(k, trials))

    return run_indexed(job, rows * len(m_list) * trials)


def _recover_grid(rows: int, m_list: list, trials: int, recovery: RecoveryConfig,
                  trial) -> list[tuple]:
    """Build every trial of the grid, recover all of them in one batch under
    the one solver config recovery.

    trial(row, m index, trial) returns (key, network, operator, x0, solver
    seed). Returns (key, rre) in grid order; rre is inf where it is
    undefined (x0 = 0).
    """
    keys, gs, ops, x0s, seeds = (list(col) for col in zip(*_grid(rows, m_list, trials, trial)))
    results = recover_batch(gs, ops, [apply(a, x0) for a, x0 in zip(ops, x0s)], seeds,
                            recovery, x0s)
    return [(key, float("inf") if res["rre"] is None else res["rre"])
            for key, res in zip(keys, results)]


# ---------------------------------------------------------------------------
# Phase portrait (coherence x measurements)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseConfig:
    betas: list = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    m_list: list = field(default_factory=lambda: [8, 16, 24, 32, 48, 64])
    trials: int = 20
    model: str = "fixed"
    recovery: RecoveryConfig = RecoveryConfig()

    def __post_init__(self):
        check_trial_grid(self.m_list, self.trials, self.model)
        if not (isinstance(self.betas, list) and self.betas):
            raise DomainError(f"betas must be a nonempty list of numbers, got {self.betas!r}")
        for beta in self.betas:
            check_number("each betas entry", beta)
        if len(set(self.betas)) < len(self.betas):
            raise DomainError(f"betas must not repeat, got {self.betas!r}")


def final_layer(w_high: np.ndarray, w_low: np.ndarray, beta) -> np.ndarray:
    """W_beta := beta * w_high + (1 - beta) * w_low, the final layer at beta.

    Raises DomainError, naming beta, where W_beta or its squared Frobenius
    norm overflows: the coherence heuristic's QR of W_beta would then fail.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w_beta = beta * w_high + (1.0 - beta) * w_low
        norm = np.linalg.norm(w_beta)
    if not math.isfinite(norm):
        raise DomainError(f"betas entry {beta!r} overflows W_beta = beta*w_high + (1 - beta)*w_low")
    return w_beta


def run_phase_portrait(inner_weights: list, w_high: np.ndarray, w_low: np.ndarray,
                       cfg: PhaseConfig, u: UnitaryOperator, seed: int) -> list[dict]:
    """Per (beta, m) cell: interpolate the final layers w_high (high
    coherence) and w_low (low coherence) after the shared inner_weights,
    measure by rows of u, recover, record; every trial's stream derives
    from seed.

    W_beta is `final_layer(w_high, w_low, beta)`, every one checked before
    any coherence is taken; success is rre < 1e-5. The betas are the rows of
    the trial grid (`_recover_grid`). Records are ordered by (beta, m, trial)
    with columns beta, coherence_heuristic, m, trial, rre, success, seed.
    """
    if w_high.shape != w_low.shape:
        raise DimensionMismatch("the two final layers must share a shape")
    sampler = check_grid(cfg.model, cfg.m_list, u.n)
    nets = [GenerativeNetwork(weights=list(inner_weights) + [final_layer(w_high, w_low, beta)])
            for beta in cfg.betas]
    nets = [(net, network_coherence_heuristic(net, u)) for net in nets]

    def trial(bi, mi, t):
        net, coh = nets[bi]
        m = cfg.m_list[mi]
        a = sampler(u, m, spawn_seed(seed, bi, mi, t))
        x0 = forward(net, derive_rng(seed, bi, mi, t, 1).standard_normal(net.code_dim))
        return (cfg.betas[bi], coh, m, t, a.seed), net, a, x0, spawn_seed(seed, bi, mi, t, 2)

    grid = _recover_grid(len(cfg.betas), cfg.m_list, cfg.trials, cfg.recovery, trial)
    return [
        {
            "beta": beta,
            "coherence_heuristic": coh,
            "m": m,
            "trial": t,
            "rre": err,
            "success": err < SUCCESS_RRE,
            "seed": a_seed,
        }
        for (beta, coh, m, t, a_seed), err in grid
    ]


def phase_success_grid(records: list[dict], betas, m_list) -> np.ndarray:
    """Success fractions indexed [beta, m] of a phase portrait's records,
    which come in grid order, (beta, m, trial)."""
    success = np.reshape([r["success"] for r in records], (len(betas), len(m_list), -1))
    return success.mean(axis=2)


# ---------------------------------------------------------------------------
# Measurement sweep over trained models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    m_list: list = field(default_factory=lambda: [10, 15, 20, 25, 50, 100, 200, 250])
    trials: int = 10
    model: str = "fixed"
    recovery: RecoveryConfig = RecoveryConfig()

    def __post_init__(self):
        check_trial_grid(self.m_list, self.trials, self.model)


def check_test_data(count: int, dim: int, models: list[tuple[str, VaeModel]]) -> None:
    """Raise unless the sweep's test data hold samples of every model's
    output dimension."""
    if count == 0:
        raise DomainError("the sweep's test data holds no samples")
    for name, model in models:
        if model.decoder.ambient_dim != dim:
            raise DimensionMismatch(f"test data dim {dim} != decoder output "
                                    f"{model.decoder.ambient_dim} of model {name!r}")


def run_measurement_sweep(
    models: list[tuple[str, VaeModel]], test_samples: np.ndarray, cfg: SweepConfig,
    u: UnitaryOperator, seed: int,
) -> tuple[list[dict], list[dict]]:
    """Per (model, m, trial): fresh A from rows of u, target G(E(x_sharp)),
    recover, record rre; every trial's stream derives from seed.

    The test samples' count and dimension, the size of u and the grid are
    checked before any trial is built. The models are the rows of the trial
    grid (`_recover_grid`), whatever the decoders' shapes. Returns (trial
    records, per-(model, m) geometric summaries).
    """
    check_test_data(*test_samples.shape, models)
    check_unitary_n(u, test_samples.shape[1])
    sampler = check_grid(cfg.model, cfg.m_list, u.n)

    def trial(gi, mi, t):
        name, model = models[gi]
        m = cfg.m_list[mi]
        # Target choice is shared across models: same x_sharp per (m, trial).
        rng = derive_rng(seed, mi, t)
        mu, _ = model.encode(test_samples[int(rng.integers(test_samples.shape[0]))])
        a = sampler(u, m, spawn_seed(seed, mi, t, 1))
        return ((name, m, t, a.seed), model.decoder, a, forward(model.decoder, mu),
                spawn_seed(seed, gi, mi, t, 2))

    grid = _recover_grid(len(models), cfg.m_list, cfg.trials, cfg.recovery, trial)
    records = [{"model": name, "m": m, "trial": t, "rre": err, "seed": a_seed}
               for (name, m, t, a_seed), err in grid]
    # Each cell's rre values, in trial order.
    cells = np.reshape([err for _, err in grid], (len(models), len(cfg.m_list), cfg.trials))
    summaries = []
    for (name, _), row in zip(models, cells):
        for m, vals in zip(cfg.m_list, row):
            gmean, gsd, floored = geometric_stats(vals)
            summaries.append(
                {"model": name, "m": m, "geo_mean_rre": gmean, "geo_sd_rre": gsd, "floored": floored}
            )
    return records, summaries


# ---------------------------------------------------------------------------
# RIP checks
# ---------------------------------------------------------------------------


def _check_rip(cfg, model: str) -> None:
    """Check the m grid, trials, sampling model and 0 < delta < 1 of a RIP
    config."""
    check_trial_grid(cfg.m_list, cfg.trials, model)
    check_number("delta", cfg.delta, positive=True)
    if not cfg.delta < 1:  # the RIP is stated for 0 < delta < 1
        raise DomainError(f"delta must be in (0, 1), got {cfg.delta}")


def _rip_trials(cfg, trial) -> tuple[list[dict], list[dict]]:
    """The trial loop of both RIP checks: (records, per-m exceed summaries).

    trial maps (m index, trial, m) to (deviation, seed); it runs on the
    trial grid with one row, one job per (m, trial).
    """

    def one(_, mi, t):
        m = cfg.m_list[mi]
        dev, seed = trial(mi, t, m)
        return {"m": m, "trial": t, "deviation": dev, "exceed": dev >= cfg.delta, "seed": seed}

    records = _grid(1, cfg.m_list, cfg.trials, one)
    exceed = np.reshape([r["exceed"] for r in records], (len(cfg.m_list), cfg.trials))
    return records, [{"m": m, "exceed_freq": float(np.mean(e)), "trials": cfg.trials}
                     for m, e in zip(cfg.m_list, exceed)]


@dataclass(frozen=True)
class RipConfig:
    m_list: list
    delta: float = 0.5
    chord_samples: int = 200
    trials: int = 100
    model: str = "bernoulli"

    def __post_init__(self):
        check_counts(chord_samples=self.chord_samples)
        _check_rip(self, self.model)


def run_rip_check(g: GenerativeNetwork, cfg: RipConfig, u: UnitaryOperator,
                  seed: int) -> tuple[list[dict], list[dict]]:
    """Empirical restricted isometry over sampled chords of range(G).

    Per (m, trial): sample A, record max over normalized chords of
    | ||Ax||_2 - 1 | and whether it exceeds delta. The config holds the
    checked values; here the network and every m are checked against u.
    """
    check_array_size(f"chord_samples={cfg.chord_samples} chords of up to {max(g.widths)}",
                     cfg.chord_samples, max(g.widths))
    sampler = check_grid(cfg.model, cfg.m_list, u.n)
    chords = ChordSampler(g, u)

    def trial(mi, t, m):
        trial_seed = spawn_seed(seed, mi, t)
        a = sampler(u, m, trial_seed)
        rng = derive_rng(seed, mi, t, 1)
        z1 = rng.standard_normal((g.code_dim, cfg.chord_samples))
        z2 = rng.standard_normal((g.code_dim, cfg.chord_samples))
        # Rows J of U W^(d): |A chord| = scale * |U_J W^(d) dh| entrywise;
        # with every chord dropped the deviation is 0.
        ax = a.scale * chords.moduli(z1, z2, a.indices)
        dev = np.max(np.abs(np.linalg.norm(ax, axis=0) - 1.0), initial=0.0)
        return float(dev), trial_seed

    return _rip_trials(cfg, trial)


@dataclass(frozen=True)
class SubspaceRipConfig:
    n: int
    k: int
    m_list: list
    delta: float = 0.4
    trials: int = 300

    def __post_init__(self):
        check_counts(n=self.n)
        check_number("k", self.k, integer=True)
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}")
        _check_rip(self, "bernoulli")
        check_grid("bernoulli", self.m_list, self.n)
        check_array_size(f"n={self.n} rows of k={self.k}", self.n, self.k)


def run_subspace_rip(cfg: SubspaceRipConfig, u: UnitaryOperator,
                     seed: int) -> tuple[list[dict], list[dict], dict]:
    """Exact subspace RIP simulation against the incoherent-subspace tail.

    Fixes one seeded random k-dim subspace of R^n, computes its exact
    coherence, then per (m, trial) draws a Bernoulli subsample and evaluates
    the deviation ||(n/m) * B_J^* B_J - I_k|| exactly (B = U Q in subspace
    coordinates). The config holds every checked value, k <= n and each
    m <= n included; a u that is not cfg.n x cfg.n raises DimensionMismatch
    (`check_unitary_n`) before any draw.

    Returns (records, per-m summaries, fit) where fit carries the fitted
    constant of 2k*exp(-c*delta^2*m/(alpha^2*n)) and the log-linear R^2.
    """
    n, k, delta = cfg.n, cfg.k, cfg.delta
    check_unitary_n(u, n)
    q = qr_thin(derive_rng(seed, 0).standard_normal((n, k)))
    alpha = subspace_coherence(u, q)
    b_mat = u.apply(q)

    def trial(mi, t, m):
        bj = b_mat[bernoulli_rows(derive_rng(seed, 1, mi, t), m, n)]
        # The subspace is real, so the sup runs over real unit v: only the
        # real (symmetric) part of the Gram matrix enters the quadratic form.
        gram = (n / m) * np.real(bj.conj().T @ bj)
        return float(np.max(np.abs(np.linalg.eigvalsh(gram - np.eye(k))))), seed

    records, summaries = _rip_trials(cfg, trial)
    fit = fit_subspace_tail(summaries, k, n, alpha, delta)
    fit["alpha"] = alpha
    for s in summaries:
        s["bound"] = min(
            1.0, 2 * k * math.exp(-fit["c"] * delta**2 * s["m"] / (alpha**2 * n))
        )
    return records, summaries, fit


def fit_subspace_tail(summaries, k, n, alpha, delta) -> dict:
    """Fit c in 2k*exp(-c*delta^2*m/(alpha^2*n)) so the bound dominates the
    empirical frequencies, and report the log-linear regression R^2 and
    slope; each is None where it is undefined (fewer than two m with an
    exceedance, or, for R^2, frequencies that do not vary)."""
    ms, freqs = [], []
    for s in summaries:
        if s["exceed_freq"] > 0:
            ms.append(s["m"])
            freqs.append(s["exceed_freq"])
    if len(ms) < 2:
        return {"c": 0.0, "r_squared": None, "slope": None}
    ms_arr = np.asarray(ms, dtype=float)
    logs = np.log(np.asarray(freqs))
    slope, intercept = np.polyfit(ms_arr, logs, 1)
    pred = slope * ms_arr + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    # Largest c keeping the bound above every observed frequency.
    cs = [(math.log(2 * k) - lf) * alpha**2 * n / (delta**2 * m) for m, lf in zip(ms, logs)]
    return {"c": max(0.0, min(cs)), "r_squared": r2, "slope": float(slope)}


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


# The XML escapes of an SVG text node, for str.translate. Importing an
# escape function costs every gcs process memory: xml.sax.saxutils pulls in
# urllib.request (about 7 MB resident), and html.escape html.entities (a
# median 0.4 MB more peak RSS on the train-coherence-784 benchmark).
_ESC = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _write_svg(path: str, width: int, height: int, margin: int, title: str,
               body: list[str]) -> None:
    """Write an SVG document of the given size: the title, if any, at the left
    margin, then the body elements, one per line. Every text, the title
    included, is escaped (_ESC): labels such as sweep model names come
    from config files."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if title:
        parts.append(f'<text x="{margin}" y="20" font-size="14">{title.translate(_ESC)}</text>')
    parts += body
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(parts))


def emit_svg_heatmap(grid: np.ndarray, path: str, row_labels, col_labels, title: str = "") -> None:
    """Static heatmap, one label per row and per column; value 1 renders
    white, 0 black."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("refusing to render an empty heatmap")
    rows, cols = grid.shape
    margin, cell = 70, 40
    parts = []
    for i in range(rows):
        for j in range(cols):
            shade = int(round(255 * min(1.0, max(0.0, grid[i, j]))))
            color = f"rgb({shade},{shade},{shade})"
            x, y = margin + j * cell, margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="gray"/>'
            )
    for i, lab in enumerate(row_labels):
        y = margin + i * cell + cell // 2
        parts.append(f'<text x="5" y="{y}" font-size="11">{lab.translate(_ESC)}</text>')
    for j, lab in enumerate(col_labels):
        x = margin + j * cell + cell // 4
        parts.append(f'<text x="{x}" y="{margin - 8}" font-size="11">{lab.translate(_ESC)}</text>')
    _write_svg(path, margin + cols * cell + 20, margin + rows * cell + 20, margin, title, parts)


def emit_svg_scatter(series: list[dict], path: str, title: str = "") -> None:
    """Scatter/line plot with a log10 y axis (values floored at RRE_FLOOR);
    each series is {"label", "x": [...], "y": [...]}."""
    if not series:
        raise DomainError("refusing to render an empty plot")
    margin, width, height = 60, 560, 400
    coords = [(np.asarray(s["x"], dtype=float),
               np.log10(np.maximum(np.asarray(s["y"], dtype=float), RRE_FLOOR))) for s in series]
    all_x = np.concatenate([xs for xs, _ in coords])
    all_y = np.concatenate([ys for _, ys in coords])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    colors = ["black", "steelblue", "firebrick", "seagreen", "darkorange"]
    parts = [
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for si, (s, (xs, ys)) in enumerate(zip(series, coords)):
        color = colors[si % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * si}" font-size="11" '
            f'fill="{color}">{s["label"].translate(_ESC)}</text>'
        )
    _write_svg(path, width, height, margin, title, parts)
