"""Latent-code recovery: Adam on 0.5*||A G(z) - b||^2, the rre metric, and the
recovery-bound audit.

The solver follows the experimental protocol: Adam with learning rate 0.1 for
up to 5000 iterations, stopping early when the gradient norm drops below 1e-7.
Recovery is declared successful when rre < 1e-5.

One engine solves every problem. `recover_batch` runs Adam in lockstep on a
latent block Z that stacks one latent vector, a column, per (problem,
restart) pair; `recover` is a one-problem call of it. Each problem has its
own network, so a whole phase portrait or sweep runs as one batch. Each
column keeps its own rows U[J], measurement b, early stop and
nonfinite-restart accounting, and leaves the block when it finishes. A
block holds columns of one |J| and one network shape, sorted by network, and
each layer is one product per run of columns that share its weights, so no
weight is ever copied. Every product is a stacked matrix-vector product
(`np.matmul(W, Z[:, :, None])`), the same BLAS call as a one-vector loop
makes, never a matrix-matrix product, whose blocking rounds differently. U[J]
is gathered unscaled once per block and the sqrt(n/m) scale multiplies each
product, as in `sampling.apply`. So each column's iterates, and every result,
are bit for bit those of solving its problem alone; tests/test_recovery.py
checks this against the one-vector loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, DomainError, GcsError, ZeroSignal
# The block engine computes objective_value_grad column by column without
# calling it; the binding stays because perfbench/instrument.py wraps it.
from .gnn import GenerativeNetwork, forward, objective_value_grad, relu, sigmoid  # noqa: F401
from .sampling import SubsampledIsometry, apply, derive_rng
from .training import adam_step

SUCCESS_RRE = 1e-5

# Cap on the row stack of one block, unless that leaves fewer than
# BLOCK_COLUMNS columns. Problems whose rows exceed it are split over several
# blocks; columns never interact, so this changes no result.
BLOCK_BYTES = 2 * 2**20
BLOCK_COLUMNS = 4


@dataclass(frozen=True)
class RecoveryConfig:
    learning_rate: float = 0.1
    max_iters: int = 5000
    grad_tol: float = 1e-7
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("learning_rate", Real), ("max_iters", Integral), ("grad_tol", Real),
                           ("restarts", Integral), ("seed", Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is Integral else "a number"
                raise DomainError(f"bad recovery value: {name} must be {what}, got {value!r}")
            if name != "seed" and not value > 0:
                raise DomainError(f"bad recovery value: {name} must be positive, got {value!r}")


@dataclass(frozen=True)
class RecoveryResult:
    z_hat: np.ndarray = field(repr=False)
    x_hat: np.ndarray = field(repr=False)
    rre: float | None
    iterations: int
    termination: str  # "grad_tol" | "max_iters"
    residual: float
    failed_restarts: int = 0

    def to_json(self) -> dict:
        d = asdict(self)
        d["z_hat"] = self.z_hat.tolist()
        d["x_hat"] = self.x_hat.tolist()
        return d


def rre(x0: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative reconstruction error ||x0 - x_hat||_2 / ||x0||_2."""
    x0 = np.asarray(x0, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x0.shape != x_hat.shape:
        raise DimensionMismatch("signals must share a shape")
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise ZeroSignal("rre undefined for a zero reference signal")
    return float(np.linalg.norm(x0 - x_hat)) / denom


def _affine(runs, h):
    """W h + bias per column of h (B, in, 1); one stacked product per run.

    runs: [(start, stop, w, bias)] covering the columns in order; bias is a
    1-D array or None. A single run skips the output buffer, which makes
    phase-desk about 7 % faster (its inner layer is one run).
    """
    if len(runs) == 1:
        _, _, w, bias = runs[0]
        h = np.matmul(w, h)
        return h if bias is None else h + bias[:, None]
    out = np.empty((h.shape[0], runs[0][2].shape[0], 1))
    for start, stop, w, bias in runs:
        part = out[start:stop]
        np.matmul(w, h[start:stop], out=part)
        if bias is not None:
            part += bias[:, None]
    return out


def _pullback(runs, s):
    """W^T s per column of s (B, out, 1); one stacked product per run."""
    if len(runs) == 1:
        return np.matmul(runs[0][2].T, s)
    out = np.empty((s.shape[0], runs[0][2].shape[1], 1))
    for start, stop, w, _ in runs:
        np.matmul(w.T, s[start:stop], out=out[start:stop])
    return out


def _block_value_grad(layers, final_activation, rows, scale, b, z):
    """Per-column finiteness of 0.5*||scale*rows@G(z) - b||^2 and its gradient.

    Shapes: layers, per layer the runs of `_layer_runs`; rows (B, |J|, n);
    scale (B, 1, 1); b (B, |J|, 1); z (B, k, 1).
    Returns (finite (B,), grad (B, k, 1)).
    """
    d = len(layers)
    h = z
    pre = []
    for i, runs in enumerate(layers):
        h = _affine(runs, h)
        pre.append(h)
        if i < d - 1:
            h = relu(h)
    y = pre[-1]
    x = sigmoid(y) if final_activation == "sigmoid" else y
    r = scale * np.matmul(rows, x) - b
    r_conj = r.conj()
    value = np.real(np.matmul(r_conj.transpose(0, 2, 1), r))[:, 0, 0]
    # Re(U_J^* r) = Re(U_J^T conj(r)): the same products up to exact sign
    # flips, without a conjugated copy of the rows.
    s = np.real(scale * np.matmul(rows.transpose(0, 2, 1), r_conj))
    if final_activation == "sigmoid":
        s = s * x * (1.0 - x)
    for i in range(d - 1, -1, -1):
        s = _pullback(layers[i], s)
        if i > 0:
            s = s * (pre[i - 1] > 0)
    finite = np.isfinite(value) & np.isfinite(s).all(axis=(1, 2))
    return finite, s


def _layer_runs(nets, owner) -> list[list[tuple]]:
    """Per layer, [(start, stop, w, bias)] over a block whose column c runs
    nets[owner[c]].

    Adjacent columns whose networks hold the same weight and bias arrays for a
    layer share one run of it, so a layer common to the whole block is one
    product; owner is sorted, so each network is one run.
    """
    cuts = np.flatnonzero(owner[1:] != owner[:-1]) + 1
    bounds = [0, *cuts.tolist(), owner.size]
    layers = []
    for i in range(nets[0].depth):
        runs = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            g = nets[owner[start]]
            w, bias = g.weights[i], None if g.biases is None else g.biases[i]
            if runs and runs[-1][2] is w and runs[-1][3] is bias:
                runs[-1] = (runs[-1][0], stop, w, bias)
            else:
                runs.append((start, stop, w, bias))
        layers.append(runs)
    return layers


def _adam_block(nets, owner, final_activation, rows, scale, b, z, config):
    """Adam in lockstep on the columns of z (B, k); column c runs the network
    nets[owner[c]] (owner sorted) and measures x by scale[c] * rows[c] @ x
    against b[c].

    Returns per column (z, iterations, termination), or None where the
    objective went nonfinite. Finished columns are moved out of rows in
    place, so the block never holds a second copy of it; Adam steps z and
    its moments in place.
    """
    out = [None] * len(z)
    live = np.arange(len(z))
    layers = _layer_runs(nets, owner)
    z = z[:, :, None]
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    for it in range(1, config.max_iters + 1):
        finite, grad = _block_value_grad(layers, final_activation, rows, scale, b, z)
        norm = np.sqrt(np.matmul(grad.transpose(0, 2, 1), grad))[:, 0, 0]
        done = finite & (norm <= config.grad_tol)
        keep = finite & ~done
        if not keep.all():
            for j in np.flatnonzero(done):
                out[live[j]] = (z[j, :, 0].copy(), it, "grad_tol")
            kept = np.flatnonzero(keep)
            for dst, src in enumerate(kept):  # ascending, so no source is overwritten
                if dst != src:
                    rows[dst] = rows[src]
            rows = rows[:kept.size]
            live, owner, z, m, v, grad, scale, b = (
                a[kept] for a in (live, owner, z, m, v, grad, scale, b))
            if not live.size:
                return out
            layers = _layer_runs(nets, owner)
        adam_step(z, grad, m, v, it, config.learning_rate)
    for j, c in enumerate(live):
        out[c] = (z[j, :, 0].copy(), config.max_iters, "max_iters")
    return out


def recover_batch(
    gs: list[GenerativeNetwork],
    ops: list[SubsampledIsometry],
    bs: list[np.ndarray],
    configs: list[RecoveryConfig],
    x0s: list[np.ndarray | None] | None = None,
) -> list[RecoveryResult]:
    """recover(gs[i], ops[i], bs[i], configs[i], x0s[i]) for every i, in lockstep.

    The configs may differ in seed and restarts only. Problems with equal |J|
    and the same unitary whose networks share widths and final activation
    share a block, so that their row sets stack; one column per restart, each
    holding its own copy of U[J]. A block's rows are one `rows` call on
    that unitary. A block holds at most BLOCK_BYTES of rows, or BLOCK_COLUMNS
    columns' if that is more, so a call needs that on top of its inputs.
    """
    if x0s is None:
        x0s = [None] * len(ops)
    if not len(gs) == len(ops) == len(bs) == len(configs) == len(x0s):
        raise DimensionMismatch("need one network, measurement, config and x0 per operator")
    bs = [np.asarray(b) for b in bs]
    for g, a, b in zip(gs, ops, bs):
        if a.base.n != g.ambient_dim:
            raise DimensionMismatch(f"operator dim {a.base.n}, network output dim {g.ambient_dim}")
        if b.shape[0] != a.num_rows:
            raise DimensionMismatch(f"measurement length {b.shape[0]} != |J| = {a.num_rows}")
    if len({(c.learning_rate, c.max_iters, c.grad_tol) for c in configs}) > 1:
        raise DomainError("a batch must share learning_rate, max_iters and grad_tol")
    if not gs:
        return []
    # Distinct networks by first appearance. A block's columns are sorted by
    # network, stably, so a problem's restarts stay adjacent.
    nets = list({id(g): g for g in gs}.values())
    index = {id(g): j for j, g in enumerate(nets)}
    net_of = [index[id(g)] for g in gs]
    cols = [(i, r) for i, c in enumerate(configs) for r in range(c.restarts)]
    groups = {}
    for c, (i, _) in enumerate(cols):
        g = gs[i]  # biases are per run, so biased and unbiased networks mix
        key = (ops[i].num_rows, id(ops[i].base), tuple(g.widths), g.final_activation)
        groups.setdefault(key, []).append(c)
    finals = [None] * len(cols)
    for (num_rows, _, widths, final_activation), group in groups.items():
        k, n = widths[0], widths[-1]
        unitary = ops[cols[group[0]][0]].base
        group.sort(key=lambda c: net_of[cols[c][0]])
        width = max(BLOCK_COLUMNS, BLOCK_BYTES // max(1, num_rows * n * unitary.dtype.itemsize))
        for start in range(0, len(group), width):
            chunk = group[start:start + width]
            problems = [cols[c][0] for c in chunk]
            scale = np.array([ops[i].scale for i in problems])[:, None, None]
            b = np.stack([bs[i] for i in problems])[:, :, None]
            z0 = np.stack([derive_rng(configs[i].seed, cols[c][1]).standard_normal(k)
                           for c, i in zip(chunk, problems)])
            owner = np.array([net_of[i] for i in problems])
            # The row stack is not bound here, so it is freed before the next
            # chunk's is built.
            block = _adam_block(nets, owner, final_activation,
                                unitary.rows(np.stack([ops[i].indices for i in problems])),
                                scale, b, z0, configs[0])
            for c, final in zip(chunk, block):
                finals[c] = final

    results = []
    c = 0
    for g, a, b, config, x0 in zip(gs, ops, bs, configs, x0s):
        best = None
        failed = 0
        for final in finals[c:c + config.restarts]:
            if final is None:
                failed += 1
                continue
            z, iters, termination = final
            x = forward(g, z)
            residual = float(np.linalg.norm(apply(a, x) - b))
            if best is None or residual < best[3]:
                best = (z, x, iters, residual, termination)
        c += config.restarts
        if best is None:
            raise GcsError(f"all {config.restarts} restarts hit a nonfinite objective")
        z, x, iters, residual, termination = best
        err = None
        if x0 is not None and np.linalg.norm(x0) > 0:
            err = rre(x0, x)
        results.append(RecoveryResult(
            z_hat=z,
            x_hat=x,
            rre=err,
            iterations=iters,
            termination=termination,
            residual=residual,
            failed_restarts=failed,
        ))
    return results


def recover(
    g: GenerativeNetwork,
    a: SubsampledIsometry,
    b: np.ndarray,
    config: RecoveryConfig = RecoveryConfig(),
    x0: np.ndarray | None = None,
) -> RecoveryResult:
    """Solve min_z ||A G(z) - b||_2 by Adam from standard-Gaussian restarts.

    Restart r starts from derive_rng(config.seed, r). The best restart by
    (recomputed) residual wins. When the true signal x0 is supplied, the
    result carries the rre against it (None when ||x0|| = 0).
    """
    return recover_batch([g], [a], [b], [config], [x0])[0]


@dataclass(frozen=True)
class BoundAudit:
    left: float
    right: float
    satisfied: bool
    x_perp_norm: float
    a_x_perp_norm: float
    eta_norm: float
    eps_hat: float


def recovery_bound_audit(
    result: RecoveryResult,
    x0: np.ndarray,
    eta: np.ndarray,
    a: SubsampledIsometry,
    eps_hat: float,
    x_perp: np.ndarray | None = None,
) -> BoundAudit:
    """Evaluate ||x_hat - x0|| <= ||x_perp|| + 3||A x_perp|| + 3||eta|| + (3/2)eps_hat.

    The caller supplies x_perp (exact projection onto range(G) is intractable);
    omit it for in-range signals, where it is zero.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != result.x_hat.shape:
        raise DimensionMismatch("x0 shape mismatch")
    if x_perp is None:
        x_perp = np.zeros_like(x0)
    x_perp = np.asarray(x_perp, dtype=float)
    if x_perp.shape != x0.shape:
        raise DimensionMismatch("x_perp shape mismatch")
    xp = float(np.linalg.norm(x_perp))
    axp = float(np.linalg.norm(apply(a, x_perp)))
    en = float(np.linalg.norm(np.asarray(eta)))
    left = float(np.linalg.norm(result.x_hat - x0))
    right = xp + 3.0 * axp + 3.0 * en + 1.5 * eps_hat
    return BoundAudit(
        left=left,
        right=right,
        satisfied=left <= right,
        x_perp_norm=xp,
        a_x_perp_norm=axp,
        eta_norm=en,
        eps_hat=eps_hat,
    )
