"""Latent-code recovery: Adam on 0.5*||A G(z) - b||^2, the rre metric, and the
recovery-bound audit.

The solver follows the experimental protocol: Adam with learning rate 0.1 for
up to 5000 iterations, stopping early when the gradient norm drops below 1e-7.
Recovery is declared successful when rre < 1e-5.

One engine solves every problem. `recover_batch` runs Adam in lockstep on a
latent block Z that stacks one latent vector, a column, per (problem,
restart) pair; `recover` is a one-problem call of it. Each problem has its
own network, so a whole phase portrait or sweep runs as one batch.

Columns whose networks share widths and final activation, and whose
unitaries and measurements share a dtype, run in one loop (`_lockstep`).
The dtype splits loops: a complex residual's gradient passes through a
strided real view, and numpy's matmul rounds a strided operand otherwise
than a contiguous one. Within a loop, the columns with equal |J| and the
same unitary form a group, and columns are sorted by network, then group.
Each iteration runs the layers, the gradient norm, the termination test and
the Adam step once over every column in flight, and the measurement
products once per stretch of one group's columns. Each layer is one product
per run of columns that share its weights, so no weight is ever copied and
each layer costs one product per network. Each column keeps its own rows
U[J], measurement b, Adam step count, early stop and nonfinite-restart
accounting, and leaves the loop when it finishes.

The rows in flight lie back to back in one buffer and their measurements in
a second. BLOCK_BYTES bounds everything a loop holds, the rows, the
per-column arrays and their transients together, unless that leaves room
for fewer than BLOCK_COLUMNS columns; so a call needs that much on top of
its inputs and results. The other columns wait in a queue and enter, in
order, as leaving columns free room. Leaving columns' entries are squeezed
out in place, and each entering column's rows are gathered straight into
the buffer.

Every product is a stacked matrix-vector product
(`np.matmul(W, Z[:, :, None])`), the same BLAS call as a one-vector loop
makes, never a matrix-matrix product, whose blocking rounds differently.
U[J] is held unscaled and the sqrt(n/m) scale multiplies each product, as
in `sampling.apply`. So each column's iterates, and every result, are bit
for bit those of solving its problem alone; tests/test_recovery.py checks
this against the one-vector loop.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, DomainError, GcsError, ZeroSignal
# The lockstep engine computes objective_value_grad column by column without
# calling it; the binding stays because perfbench/instrument.py wraps it.
from .gnn import GenerativeNetwork, forward, objective_value_grad, relu, sigmoid  # noqa: F401
from .sampling import SubsampledIsometry, apply, derive_rng
from .training import adam_step

SUCCESS_RRE = 1e-5

# Cap on what one lockstep loop holds, transients included (see `_capacity`),
# unless that leaves room for fewer than BLOCK_COLUMNS columns. Columns that
# do not fit wait until others leave; columns never interact, so this
# changes no result.
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
            if not (value >= 0 if name == "seed" else value > 0):
                least = ">= 0" if name == "seed" else "positive"
                raise DomainError(f"bad recovery value: {name} must be {least}, got {value!r}")
            if name == "learning_rate" and not value <= sys.float_info.max:
                raise DomainError(f"bad recovery value: {name} must be finite, got {value!r}")


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
    1-D array or None.
    """
    out = np.empty((h.shape[0], runs[0][2].shape[0], 1))
    for start, stop, w, bias in runs:
        part = out[start:stop]
        np.matmul(w, h[start:stop], out=part)
        if bias is not None:
            part += bias[:, None]
    return out


def _pullback(runs, s):
    """W^T s per column of s (B, out, 1); one stacked product per run."""
    out = np.empty((s.shape[0], runs[0][2].shape[1], 1))
    for start, stop, w, _ in runs:
        np.matmul(w.T, s[start:stop], out=out[start:stop])
    return out


def _block_value_grad(layers, final_activation, measure, z):
    """Per-column finiteness of 0.5*||scale*rows@G(z) - b||^2 and its gradient.

    Shapes: layers, per layer the runs of `_layer_runs`; measure,
    a `_Measure` of the columns; z (B, k, 1).
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
    for start, stop, rows, p, *_ in measure.segments:
        np.matmul(rows, x[start:stop], out=p)
    # r = scale*(U_J x) - b, one entry per row in flight.
    measure.p *= measure.scale_rows
    np.subtract(measure.p, measure.b, out=measure.r)
    if measure.r_conj is not measure.r:
        np.conjugate(measure.r, out=measure.r_conj)
    for start, stop, rows, _, r, r_conj, value, s in measure.segments:
        np.matmul(r_conj.transpose(0, 2, 1), r, out=value)
        # Re(U_J^* r) = Re(U_J^T conj(r)): the same products up to exact sign
        # flips, without a conjugated copy of the rows.
        np.matmul(rows.transpose(0, 2, 1), r_conj, out=s)
    measure.s *= measure.scale
    # For complex residuals this is a strided view. The pullback below must
    # see it so: numpy's matmul rounds differently on strided operands, so a
    # contiguous copy would not step as the column alone does.
    s = np.real(measure.s)
    if final_activation == "sigmoid":
        s = s * x * (1.0 - x)
    for i in range(d - 1, -1, -1):
        s = _pullback(layers[i], s)
        if i > 0:
            s = s * (pre[i - 1] > 0)
    finite = np.isfinite(np.real(measure.value[:, 0, 0])) & np.isfinite(s).all(axis=(1, 2))
    return finite, s


def _stretches(keys) -> list[tuple[int, int]]:
    """(start, stop) of each stretch of equal adjacent entries of keys."""
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _layer_runs(nets, owner) -> list[list[tuple]]:
    """Per layer, [(start, stop, w, bias)] over the columns in flight, whose
    column c runs nets[owner[c]].

    Adjacent columns whose networks hold the same weight and bias arrays for a
    layer share one run of it, so a layer common to the columns in flight is
    one product.
    """
    layers = []
    for i in range(nets[0].depth):
        runs = []
        for start, stop in _stretches(owner):
            g = nets[owner[start]]
            w, bias = g.weights[i], None if g.biases is None else g.biases[i]
            if runs and runs[-1][2] is w and runs[-1][3] is bias:
                runs[-1] = (runs[-1][0], stop, w, bias)
            else:
                runs.append((start, stop, w, bias))
        layers.append(runs)
    return layers


class _Measure:
    """The measurement side of the columns in flight. Per stretch of one
    group's columns, `segments` holds (start, stop, rows) and views of the
    buffers: p = U_J x and r = scale*p - b, one entry per row in flight
    (r_conj is r for real residuals), and value and the gradient s, one per
    column. b holds the measurements in the layout of p."""

    def __init__(self, rows_flat, b_flat, group, jrows, scale, n, measure_dtype):
        entries = int(jrows.sum())
        self.scale, self.scale_rows, self.b = scale, np.repeat(scale[:, 0, 0], jrows), b_flat[:entries]
        self.p = np.empty(entries, dtype=rows_flat.dtype)
        self.r = self.p if rows_flat.dtype == measure_dtype else np.empty_like(self.p, measure_dtype)
        self.r_conj = np.empty_like(self.r) if self.r.dtype.kind == "c" else self.r
        self.value = np.empty((len(scale), 1, 1), dtype=measure_dtype)
        self.s = np.empty((len(scale), n, 1), dtype=measure_dtype)
        self.segments, at = [], 0
        for start, stop in _stretches(group):
            shape = (stop - start, int(jrows[start]), 1)
            size = shape[0] * shape[1]
            self.segments.append((start, stop, rows_flat[at * n:(at + size) * n].reshape(shape[:2] + (n,)),
                                  *(a[at:at + size].reshape(shape) for a in (self.p, self.r, self.r_conj)),
                                  self.value[start:stop], self.s[start:stop]))
            at += size


def _squeeze(flat, sizes, keep) -> None:
    """Move the entries of the kept columns to the front of flat, in order.

    Column c holds sizes[c] entries, the columns back to back from flat[0].
    Each run of kept columns moves by one copy on a byte view: numpy copies
    overlapping 1-D byte slices in place, but a complex slice through a
    temporary as large as the run.
    """
    raw = flat.view(np.uint8)
    ends = np.cumsum(sizes) * flat.itemsize
    starts = ends - sizes * flat.itemsize
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    dst = 0
    for first, last in zip(edges[::2], edges[1::2] - 1):
        src, stop = starts[first], ends[last]
        if dst != src:
            raw[dst:dst + stop - src] = raw[src:stop]
        dst += stop - src


def _capacity(jrows_of, widths, dtype, measure_dtype) -> tuple[int, int]:
    """(rows, columns) a lockstep loop may hold in flight, so that everything
    it holds, its transients included, fits in BLOCK_BYTES; or BLOCK_COLUMNS
    of the queue's largest columns, if that is more. jrows_of: |J| per
    queued column.
    """
    # Each row in flight costs its entries of U, its measurement, its product
    # U_J x, the residual and its conjugate and its scale; each column its
    # value, its gradient through U_J, 512 bytes of Python objects and six
    # floats per layer width, which cover an iteration's activations,
    # gradients, Adam moments and their temporaries (tracemalloc puts them at
    # 2.5-4.5 kB at the desk widths, where this counts 5-6.5 kB). One
    # column's `rows` call, at most three arrays of that column's rows, is
    # set aside. The rest is split between rows and columns in the queue's
    # mean ratio.
    n = widths[-1]
    row_bytes = (n + 1) * dtype.itemsize + 3 * measure_dtype.itemsize + 8
    column_bytes = (n + 1) * measure_dtype.itemsize + 512 + 6 * 8 * sum(widths)
    largest = int(jrows_of.max())
    room = BLOCK_BYTES - 3 * largest * n * dtype.itemsize
    columns = max(room // int(jrows_of.mean() * row_bytes + column_bytes), 0)
    rows = max((room - columns * column_bytes) // row_bytes, 0)
    return (int(min(jrows_of.sum(), max(rows, BLOCK_COLUMNS * largest))),
            int(min(jrows_of.size, max(columns, BLOCK_COLUMNS))))


def _lockstep(nets, queue, final_activation, widths, dtype, measure_dtype, config):
    """Adam in lockstep on the columns of queue, which enter in order as the
    columns in flight leave room.

    queue: per column (net, op, b, seed, restart, group): the column runs
    nets[net] from derive_rng(seed, restart) and measures x by op against b;
    the columns of one group share |J| and the unitary.
    Returns per column (z, iterations, termination), or None where the
    objective went nonfinite.
    """
    k, n = widths[0], widths[-1]
    net_of, ops, _, _, _, group_of = zip(*queue)
    net_of, group_of = np.array(net_of), np.array(group_of)
    jrows_of = np.array([op.num_rows for op in ops], dtype=np.intp)
    scale_of = np.array([op.scale for op in ops])[:, None, None]
    max_rows, max_columns = _capacity(jrows_of, widths, dtype, measure_dtype)
    rows_flat = np.empty(max_rows * n, dtype=dtype)
    b_flat = np.empty(max_rows, dtype=measure_dtype)
    out = [None] * len(queue)
    pos = used = 0
    # Per column in flight, in order: its queue position, its Adam step
    # count, and its latent vector with both moments.
    ids = t = np.zeros(0, dtype=np.intp)
    state = np.zeros((3, 0, k, 1))
    layers = None
    while True:
        starts = []
        while (pos < len(queue) and used + jrows_of[pos] <= max_rows
               and ids.size + len(starts) < max_columns):
            _, op, b, seed, restart, _ = queue[pos]
            stop = used + op.num_rows
            rows_flat[used * n:stop * n] = op.base.rows(op.indices).reshape(-1)
            b_flat[used:stop] = b
            starts.append(derive_rng(seed, restart).standard_normal(k))
            pos, used = pos + 1, stop
        if starts:
            fresh = np.zeros((3, len(starts), k, 1))
            fresh[0, :, :, 0] = starts
            ids = np.concatenate([ids, np.arange(pos - len(starts), pos)])
            t = np.concatenate([t, np.ones(len(starts), dtype=np.intp)])
            state = np.concatenate([state, fresh], axis=1)
            layers = None
        if not ids.size:
            return out
        if layers is None:  # the columns in flight changed
            layers = _layer_runs(nets, net_of[ids])
            measure = _Measure(rows_flat, b_flat, group_of[ids], jrows_of[ids], scale_of[ids], n,
                               measure_dtype)
            z, m, v = state

        finite, grad = _block_value_grad(layers, final_activation, measure, z)
        norm = np.sqrt(np.matmul(grad.transpose(0, 2, 1), grad))[:, 0, 0]
        done = finite & (norm <= config.grad_tol)
        keep = finite & ~done
        leaving = not keep.all()
        if leaving:
            for j in np.flatnonzero(done):
                out[ids[j]] = (z[j, :, 0].copy(), int(t[j]), "grad_tol")
            # Leaving columns step too, on a zero gradient, so that a
            # nonfinite one raises no floating-point warning; nothing reads
            # their state again.
            grad[~keep] = 0.0
        adam_step(z, grad, m, v, t, config.learning_rate)
        # Columns enter in queue order and t counts up, so t[0] is the most.
        if t[0] == config.max_iters:
            capped = keep & (t == config.max_iters)
            for j in np.flatnonzero(capped):
                out[ids[j]] = (z[j, :, 0].copy(), config.max_iters, "max_iters")
            keep &= ~capped
            leaving = True
        if leaving:
            jrows = jrows_of[ids]
            _squeeze(rows_flat, jrows * n, keep)
            _squeeze(b_flat, jrows, keep)
            # state[:, keep] would not be C-contiguous, and Adam's updates of
            # strided views of it took a third longer.
            ids, t, state = ids[keep], t[keep], state.compress(keep, axis=1)
            used = int(jrows[keep].sum())
            layers = None
        t += 1


def recover_batch(
    gs: list[GenerativeNetwork],
    ops: list[SubsampledIsometry],
    bs: list[np.ndarray],
    configs: list[RecoveryConfig],
    x0s: list[np.ndarray | None] | None = None,
) -> list[RecoveryResult]:
    """recover(gs[i], ops[i], bs[i], configs[i], x0s[i]) for every i, in lockstep.

    The configs may differ in seed and restarts only. Each restart is one
    column of the engine the module docstring describes, so every result is
    bit for bit the one-problem result.
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
    # Distinct networks by first appearance.
    nets = list({id(g): g for g in gs}.values())
    index = {id(g): j for j, g in enumerate(nets)}
    net_of = [index[id(g)] for g in gs]
    cols = [(i, r) for i, c in enumerate(configs) for r in range(c.restarts)]
    loops = {}
    for c, (i, _) in enumerate(cols):
        g, a = gs[i], ops[i]  # biases are per run, so biased and unbiased networks mix
        loop = (tuple(g.widths), g.final_activation, a.base.dtype,
                np.result_type(a.base.dtype, bs[i].dtype))
        loops.setdefault(loop, {}).setdefault((a.num_rows, id(a.base)), []).append(c)
    finals = [None] * len(cols)
    for (widths, final_activation, dtype, measure_dtype), groups in loops.items():
        # Sorted by network, then group: each layer then costs one product
        # per network per iteration, however many groups the networks span.
        # Ties keep the columns' order, so a problem's restarts stay adjacent.
        columns = sorted((net_of[cols[c][0]], g, c) for g, group in enumerate(groups.values())
                         for c in group)
        queue = []
        for _, g, c in columns:
            i, r = cols[c]
            queue.append((net_of[i], ops[i], bs[i], configs[i].seed, r, g))
        block = _lockstep(nets, queue, final_activation, widths, dtype, measure_dtype,
                          configs[0])
        for (_, _, c), final in zip(columns, block):
            finals[c] = final

    results = []
    c = 0
    for g, a, b, config, x0 in zip(gs, ops, bs, configs, x0s):
        finished = [final for final in finals[c:c + config.restarts] if final is not None]
        c += config.restarts
        if not finished:
            raise GcsError(f"all {config.restarts} restarts hit a nonfinite objective")
        tried = []
        for z, iters, termination in finished:
            x = forward(g, z)
            tried.append((float(np.linalg.norm(apply(a, x) - b)), z, x, iters, termination))
        # The first restart of least (recomputed) residual wins.
        residual, z, x, iters, termination = min(tried, key=lambda e: e[0])
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
            failed_restarts=config.restarts - len(finished),
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
