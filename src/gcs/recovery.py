"""Latent-code recovery: Adam on 0.5*||A G(z) - b||^2, the rre metric, and the
recovery-bound audit.

The solver follows the experimental protocol: Adam with learning rate 0.1 for
up to 5000 iterations, stopping early when the gradient norm drops below 1e-7.
Recovery is declared successful when rre < 1e-5.

One engine solves every problem. A problem is one record (g, a, b, x0,
seed): its network, its operator, its measurement, its target (or None) and
its solver seed. `recover_batch` takes a list of records and checks each
whole before any loop step; `recover` is a one-record call of it. It runs
Adam in lockstep on a latent block Z that stacks one latent vector, a
column, per (problem, restart) pair. A column's queue entry is its record's
(g, a, b, seed) and its restart, so each column carries its own network,
and a whole phase portrait or sweep runs as one batch.

Columns whose networks share widths run in one loop (`_lockstep`), in
float64 only: a column's rows U[J] are `sampling.rows`, which gives a
complex U's rows as [Re U_J; Im U_J], so measurements and residuals are
real and a complex measurement is rejected. Within a loop, the columns with
equal |J|, counted in real rows, form a group, whatever their unitaries,
and columns are sorted by network, then group. Each column keeps its own
rows U[J], measurement b, Adam step count, early stop and nonfinite-restart
accounting.

Each time the set of columns in flight changes, the loop builds a plan
(`_Plan`). It gathers the columns' rows and measurements and preallocates
every buffer an iteration needs: activations, ReLU masks, residual,
gradients and Adam scratch. It lists every numpy call of one gradient, in
order, as (ufunc, a, b, out). There is one product per layer per run of
adjacent columns whose networks hold the same weight and bias arrays for
it, so no weight is ever copied, and two per stretch of one group's columns
for the measurement side; the bias adds, ReLUs, masks and scales are calls
too. An iteration makes those calls, each into its out, and then the
gradient norm, the termination test and one Adam step over every column in
flight. It slices and transposes nothing, and no block it allocates
outlives it: what numpy allocates within a call (the buffers of its
iterator, for a broadcast operand) it frees there.

No value is computed: a column fails its restart where the norm of its
gradient is not finite, as in the one-vector loop. Each iteration that one
number, which the termination test forms anyway, decides every column: a
norm at most grad_tol ends the column, a nonfinite one (an entry that is
inf or NaN, or a squared norm that overflowed) fails its restart, and any
other runs on. Since the norm decides, the loop runs with numpy's overflow
and invalid-value warnings off.

A plan holds the rows U[J] of each stretch of one group's columns in one
array, filled column by column, and the columns' measurements in another.
Each queued column costs a fixed count of bytes, its rows' and its own (see
`_lockstep`). Columns enter in queue order while what the loop holds stays
within BLOCK_BYTES, or while fewer than BLOCK_COLUMNS are in flight; so a
call needs about BLOCK_BYTES on top of its inputs and results. The other
columns wait in the queue. A finished column stays in flight and steps on,
unread, until the next compaction; nothing writes to a plan's rows,
measurements or scales once it is built. When an eighth or more of the
columns in flight have finished, or all of them, the loop compacts: the
finished columns leave, the waiting columns enter in order as far as room
allows, and a new plan gathers the rows of all in flight.

Every product is a stacked matrix-vector product
(`np.matmul(W, Z[:, :, None])`), the same BLAS call as a one-vector loop
makes, never a matrix-matrix product, whose blocking rounds differently.
U[J] is held unscaled and the sqrt(n/m) scale multiplies each product, as
in `sampling.apply`. So each column's iterates, and every result, are bit
for bit those of solving its problem alone; tests/test_recovery.py checks
this against the one-vector loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, GcsError, check_number
# The lockstep engine computes objective_value_grad's gradient column by
# column without calling it; the binding stays because perfbench/instrument.py
# wraps it.
from .gnn import GenerativeNetwork, forward, objective_value_grad  # noqa: F401
from .sampling import SubsampledIsometry, apply, check_measurement, derive_rng, rows as sampled_rows
from .training import adam_step, adam_table
from .transforms import check_unitary_n

SUCCESS_RRE = 1e-5

# Cap on what one lockstep loop holds, transients included (see `_lockstep`),
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

    def __post_init__(self):
        check_number("recovery learning_rate", self.learning_rate, positive=True)
        check_number("recovery max_iters", self.max_iters, integer=True, positive=True)
        check_number("recovery grad_tol", self.grad_tol, positive=True)
        check_number("recovery restarts", self.restarts, integer=True, positive=True)


def rre(x0: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative reconstruction error ||x0 - x_hat||_2 / ||x0||_2."""
    x0 = np.asarray(x0, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x0.shape != x_hat.shape:
        raise DimensionMismatch("signals must share a shape")
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise DomainError("rre undefined for a zero reference signal")
    return float(np.linalg.norm(x0 - x_hat)) / denom


def _stretches(keys) -> list[tuple[int, int]]:
    """(start, stop) of each stretch of equal adjacent entries of keys."""
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    return list(zip(bounds[:-1], bounds[1:]))


class _Plan:
    """The buffers and the call list of one iteration over the columns in
    flight (see the module docstring).

    entries: the queue entries of the columns in flight, in order (see
    `_lockstep`). calls: each (ufunc, a, b, out) call of one gradient, in
    order. Per layer, each run's product and its bias add, then, for an
    inner layer, the ReLU mask and the ReLU; the last layer's output is the
    network's output x. Per stretch of adjacent columns with equal |J| (one
    group's columns, or some of them), the gather product r = U_J x into a
    view of the residual r. The scale of r, which holds one entry per row in
    flight, by its rows' scales, and its `- b`. Per stretch, the scatter
    product s = U_J^T r; then the scale of s. Per layer from the last, the
    mask multiply of its output's gradient, for an inner layer, and each
    run's pullback product into the gradient over its input; the first
    layer's is grad, the gradient over z.
    Each stretch's U_J is one array the plan fills column by column. The
    rows, b and the scales are the plan's inputs: an iteration reads them
    and nothing writes to them once the plan is built.
    """

    def __init__(self, entries, z):
        mine, ops, bs, _, _ = zip(*entries)  # mine: each column's network
        columns, n, depth = len(mine), mine[0].ambient_dim, mine[0].depth
        s = np.empty((columns, n, 1))
        forward, back, codes = [], [], {}
        h, dh = z, np.empty_like(z)
        self.grad, self.grad_t = dh, dh.transpose(0, 2, 1)
        for i in range(depth):
            pairs = [(g.weights[i], None if g.biases is None else g.biases[i]) for g in mine]
            code = np.array([codes.setdefault((id(w), id(c)), len(codes)) for w, c in pairs])
            runs = [(a, b, *pairs[a]) for a, b in _stretches(code)]
            out = np.empty((columns, runs[0][2].shape[0], 1))
            dout = s if i == depth - 1 else np.empty_like(out)
            pullback = [(np.matmul, w.T, dout[a:b], dh[a:b]) for a, b, w, _ in runs]
            for a, b, w, c in runs:
                forward.append((np.matmul, w, h[a:b], out[a:b]))
                if c is not None:
                    forward.append((np.add, out[a:b], c[:, None], out[a:b]))
            if i < depth - 1:
                mask = np.empty(out.shape, dtype=bool)
                forward += [(np.greater, out, 0, mask), (np.maximum, out, 0.0, out)]
                pullback.insert(0, (np.multiply, dout, mask, dout))
            back[:0] = pullback
            h, dh = out, dout
        jrows = np.array([op.num_rows for op in ops], dtype=np.intp)
        scale = np.array([op.scale for op in ops])[:, None, None]
        b = np.concatenate(bs, dtype=float)
        r = np.empty(b.size)
        gathers, scatters, at = [], [], 0
        for start, stop in _stretches(jrows):
            shape = (stop - start, int(jrows[start]), 1)
            size = shape[0] * shape[1]
            rows = np.empty(shape[:2] + (n,))
            # One column at a time, so that a closed-form `rows` call's
            # temporaries stay one column's size. A problem's restarts are
            # adjacent and share one op, so they copy the rows gathered last.
            for i, op in enumerate(ops[start:stop]):
                rows[i] = rows[i - 1] if i and op is ops[start + i - 1] else sampled_rows(op)
            part = r[at:at + size].reshape(shape)
            gathers.append((np.matmul, rows, h[start:stop], part))
            scatters.append((np.matmul, rows.transpose(0, 2, 1), part, s[start:stop]))
            at += size
        # r = scale*(U_J x) - b.
        self.calls = [*forward, *gathers, (np.multiply, r, np.repeat(scale[:, 0, 0], jrows), r),
                      (np.subtract, r, b, r), *scatters, (np.multiply, s, scale, s), *back]
        self.norm = np.empty((columns, 1, 1))
        self.keep, self.finite = np.empty(columns, dtype=bool), np.empty(columns, dtype=bool)
        self.adam = (np.empty_like(z), np.empty_like(z))


def _block_grad(plan, z):
    """The gradient (B, k, 1) of 0.5*||r||^2 over z, where
    r = scale*U_J G(z) - b, computed by the calls of plan, which read z
    through the views the plan was built with.
    """
    for f, a, b, out in plan.calls:
        f(a, b, out=out)
    return plan.grad


def _lockstep(queue, config):
    """Adam in lockstep on the columns of queue, which enter in order, at the
    start and at each compaction, as far as room allows.

    queue: per column (net, op, b, seed, restart): the column runs net from
    derive_rng(seed, restart) and measures x by op against b. Every
    column's network has the widths of the first column's; the columns with
    equal |J| form a group.
    Returns per column (z, iterations, termination), or None where the
    objective went nonfinite.
    """
    widths = queue[0][0].widths
    k, n = widths[0], widths[-1]
    # What a queued column costs in flight, transients included. Each row costs
    # its entries of U, its measurement, its residual (first the product U_J x),
    # two entries to spare and its scale; each column one entry to spare, its
    # gradient through U_J, 512 bytes of Python objects and six floats per
    # layer width, which cover the plan's activations, ReLU masks and
    # gradients, the latent vector, both moments and the Adam scratch. With
    # eight rows per column this counts 5.4 kB per column besides U at the
    # desk widths. Tracemalloc puts what a column holds, its state, its share
    # of the plan and of one iteration's transients, at 1.9-2.9 kB besides U
    # (64 to 1,024 columns). The counted figures are kept, so that the columns
    # in flight stay comparable with earlier measurements. One column's `rows`
    # call, at most three arrays of that column's rows, is set aside.
    row_bytes = (n + 4) * 8 + 8
    column_bytes = (n + 1) * 8 + 512 + 6 * 8 * sum(widths)
    jrows = np.array([op.num_rows for _, op, *_ in queue])
    cost = jrows * row_bytes + column_bytes
    room = BLOCK_BYTES - 3 * int(jrows.max()) * n * 8
    out = [None] * len(queue)
    pos = held = 0
    # Per column in flight, in order: its queue position, its Adam step
    # count, and its latent vector with both moments.
    ids = t = np.zeros(0, dtype=np.intp)
    state, table = np.zeros((3, 0, k, 1)), adam_table(config.max_iters)
    while True:
        starts = []
        while pos < len(queue) and (held + cost[pos] <= room
                                    or ids.size + len(starts) < BLOCK_COLUMNS):
            _, _, _, seed, restart = queue[pos]
            starts.append(derive_rng(seed, restart).standard_normal(k))
            pos, held = pos + 1, held + cost[pos]
        if starts:
            fresh = np.zeros((3, len(starts), k, 1))
            fresh[0, :, :, 0] = starts
            ids = np.concatenate([ids, np.arange(pos - len(starts), pos)])
            t = np.concatenate([t, np.ones(len(starts), dtype=np.intp)])
            state = np.concatenate([state, fresh], axis=1)
        if not ids.size:
            return out
        plan = _Plan([queue[i] for i in ids], state[0])
        z, m, v = state
        norm, keep, finite = plan.norm.reshape(-1), plan.keep, plan.finite
        # live: the columns still running; the first of them has the most
        # steps, since columns enter in queue order and t counts up. A column
        # that has left steps on, unread, until the next compaction.
        live, first, running = np.ones(ids.size, dtype=bool), 0, ids.size
        while 8 * (ids.size - running) < ids.size:
            grad = _block_grad(plan, z)
            np.matmul(plan.grad_t, grad, out=plan.norm)
            np.sqrt(norm, out=norm)
            # A live column runs on while its gradient norm is finite and
            # above grad_tol; where the norm is not finite, its restart fails.
            np.isfinite(norm, out=finite)
            np.greater(norm, config.grad_tol, out=keep)
            keep &= finite
            keep &= live
            if left := np.count_nonzero(keep) != running:
                for j in np.flatnonzero(live & finite & ~keep):
                    out[ids[j]] = (z[j, :, 0].copy(), int(t[j]), "grad_tol")
            adam_step(z, grad, m, v, t, config.learning_rate, table, plan.adam)
            if t[first] == config.max_iters:
                for j in np.flatnonzero(keep & (t == config.max_iters)):
                    out[ids[j]] = (z[j, :, 0].copy(), config.max_iters, "max_iters")
                keep &= t != config.max_iters
                left = True
            if left:
                live, first, running = keep.copy(), int(keep.argmax()), np.count_nonzero(keep)
            t += 1
        # Compaction: an eighth or more of the columns in flight finished.
        # They leave, and the next plan gathers the rows of those that stay.
        plan = grad = None
        # state[:, live] would not be C-contiguous, and Adam's updates of
        # strided views of it took a third longer.
        ids, t, state = ids[live], t[live], state.compress(live, axis=1)
        held = int(cost[ids].sum())


def recover_batch(problems: list[tuple], config: RecoveryConfig) -> list[dict]:
    """recover(g, a, b, config, x0, seed) for every record (g, a, b, x0, seed)
    of problems, in lockstep.

    Every record is checked whole before any loop step. Each restart is one
    column of the engine the module docstring describes, so every result is
    bit for bit the one-problem result.
    """
    problems = [(g, a, np.asarray(b), x0, seed) for g, a, b, x0, seed in problems]
    for g, a, b, x0, seed in problems:
        check_number("recovery seed", seed, 0, integer=True)
        check_unitary_n(a.base, g.ambient_dim)
        check_measurement(a, b)
        if x0 is not None and np.shape(x0) != (g.ambient_dim,):
            raise DimensionMismatch(f"x0 has shape {np.shape(x0)}, the network's output "
                                    f"({g.ambient_dim},)")
    restarts = config.restarts
    loops, finals, first = {}, {}, {}
    for i, (g, *_) in enumerate(problems):
        first.setdefault(id(g), len(first))  # distinct networks by first appearance
        # Biases are per run, so biased and unbiased networks mix.
        loops.setdefault(tuple(g.widths), []).append(i)
    for loop in loops.values():
        # Sorted by network, then |J| in order of first appearance: each
        # layer then costs one product per network per iteration, however
        # many groups the networks span. Ties keep the problems' order, and a
        # problem's restarts are adjacent.
        sizes = list(dict.fromkeys(problems[i][1].num_rows for i in loop))
        loop.sort(key=lambda i: (first[id(problems[i][0])], sizes.index(problems[i][1].num_rows)))
        queue = [(g, a, b, seed, r) for g, a, b, _, seed in (problems[i] for i in loop)
                 for r in range(restarts)]
        with np.errstate(over="ignore", invalid="ignore"):
            block = iter(_lockstep(queue, config))
        for i in loop:
            finals[i] = [next(block) for _ in range(restarts)]

    results = []
    for i, (g, a, b, x0, _) in enumerate(problems):
        finished = [final for final in finals[i] if final is not None]
        if not finished:
            raise GcsError(f"all {restarts} restarts hit a nonfinite objective")
        xs = [forward(g, z) for z, _, _ in finished]
        tried = [(float(np.linalg.norm(apply(a, x) - b)), z, x, iters, termination)
                 for x, (z, iters, termination) in zip(xs, finished)]
        # The first restart of least (recomputed) residual wins.
        residual, z, x, iters, termination = min(tried, key=lambda e: e[0])
        err = rre(x0, x) if x0 is not None and np.linalg.norm(x0) > 0 else None
        results.append({"z_hat": z, "x_hat": x, "rre": err, "iterations": iters,
                        "termination": termination, "residual": residual,
                        "failed_restarts": restarts - len(finished)})
    return results


def recover(
    g: GenerativeNetwork,
    a: SubsampledIsometry,
    b: np.ndarray,
    config: RecoveryConfig = RecoveryConfig(),
    x0: np.ndarray | None = None,
    seed: int = 0,
) -> dict:
    """Solve min_z ||A G(z) - b||_2 by Adam from standard-Gaussian restarts.

    Restart r starts from derive_rng(seed, r). The best restart by
    (recomputed) residual wins. Returns a dict with the keys, in order:
    "z_hat" and "x_hat" = G(z_hat); "rre", the rre against x0 (None when x0
    is not supplied or ||x0|| = 0); "iterations"; "termination", "grad_tol"
    or "max_iters"; "residual", ||A x_hat - b||; and "failed_restarts", the
    restarts that hit a nonfinite objective.
    """
    return recover_batch([(g, a, b, x0, seed)], config)[0]


def recovery_bound_audit(
    result: dict,
    x0: np.ndarray,
    eta: np.ndarray,
    a: SubsampledIsometry,
    eps_hat: float,
    x_perp: np.ndarray | None = None,
) -> dict:
    """Evaluate ||x_hat - x0|| <= ||x_perp|| + 3||A x_perp|| + 3||eta|| + (3/2)eps_hat.

    Returns the sides "left" and "right", "satisfied" (left <= right), and
    the terms "x_perp_norm", "a_x_perp_norm", "eta_norm" and "eps_hat".
    result is what `recover` returns; only its "x_hat" is read. The caller
    supplies x_perp (exact projection onto range(G) is intractable); omit it
    for in-range signals, where it is zero.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != result["x_hat"].shape:
        raise DimensionMismatch("x0 shape mismatch")
    if x_perp is None:
        x_perp = np.zeros_like(x0)
    x_perp = np.asarray(x_perp, dtype=float)
    if x_perp.shape != x0.shape:
        raise DimensionMismatch("x_perp shape mismatch")
    xp = float(np.linalg.norm(x_perp))
    axp = float(np.linalg.norm(apply(a, x_perp)))
    en = float(np.linalg.norm(np.asarray(eta)))
    left = float(np.linalg.norm(result["x_hat"] - x0))
    right = xp + 3.0 * axp + 3.0 * en + 1.5 * eps_hat
    return {"left": left, "right": right, "satisfied": left <= right, "x_perp_norm": xp,
            "a_x_perp_norm": axp, "eta_norm": en, "eps_hat": eps_hat}
