"""Subsampled isometries: both sampling models, isotropy diagnostics, tails.

Randomness is counter-based: every trial derives its own generator from
(base_seed, trial_index) via numpy's SeedSequence, so a trial's draws do not
depend on how many trials run, and a run with fewer trials repeats the first
trials of a longer run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, check_counts, check_number
from .transforms import UnitaryOperator, check_unitary_n


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Stream-split generator: per-trial seed = SeedSequence((seed, *stream)).

    The root seed must be an integer >= 0, or DomainError names it; the
    stream indices, which only the toolkit's own code passes, are not
    checked.
    """
    check_number("seed", seed, 0, integer=True)
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


def spawn_seed(seed: int, *stream: int) -> int:
    """Derived integer seed for handing to sample_bernoulli/sample_fixed."""
    return int(derive_rng(seed, *stream).integers(2**63))


@dataclass(frozen=True)
class SubsampledIsometry:
    base: UnitaryOperator
    m: int
    indices: np.ndarray = field(repr=False)  # sorted realized row set J
    seed: int = 0

    @property
    def scale(self) -> float:
        return math.sqrt(self.base.n / self.m)

    @property
    def num_rows(self) -> int:
        """Real measurements: |J|, or 2|J| for a complex U (see `rows`)."""
        return int(self.indices.size) * (2 if self.base.dtype.kind == "c" else 1)


# The sampling models by name, and the smallest m each accepts; both need m <= n.
MIN_M = {"fixed": 1, "bernoulli": 2}


def check_grid(model: str, m_list, n: int | None = None):
    """The sampler of a sampling model, sample_fixed or sample_bernoulli,
    after checking that model names one, that m_list is a nonempty list of
    distinct integers, and that each m is at least the model's least m and,
    where n is given, at most n. It is the one check of an m grid and of a
    single m ([m]); records and summaries are keyed by m, so an m may
    appear only once.

    The module attributes are read at call time, so a rebound sampler (a
    tracing wrapper, say) is the one returned.
    """
    if not isinstance(model, str) or model not in MIN_M:
        raise DomainError(f"unknown sampling model {model!r} (expected {' or '.join(MIN_M)})")
    if not isinstance(m_list, list):
        raise DomainError(f"m_list must be a list of integers, got {m_list!r}")
    if not m_list:
        raise DomainError("the m grid is empty")
    for i, m in enumerate(m_list):
        check_number("m", m, integer=True)
        if m in m_list[:i]:
            raise DomainError(f"m = {m} appears twice in the m grid")
    for m in m_list:
        if not MIN_M[model] <= m <= (math.inf if n is None else n):
            of_n = "" if n is None else f", n={n}"
            raise DomainError(f"need {MIN_M[model]} <= m <= n for {model} sampling, got m={m}{of_n}")
    return {"fixed": sample_fixed, "bernoulli": sample_bernoulli}[model]


def bernoulli_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Sorted rows of [n] one Bernoulli draw keeps, each with probability m/n."""
    return np.flatnonzero(rng.random(n) < m / n)


def sample_bernoulli(u: UnitaryOperator, m: int, seed: int) -> SubsampledIsometry:
    """Include each row independently with probability m/n; E|J| = m.

    Empty realizations are retained (not resampled).
    """
    n = u.n
    check_grid("bernoulli", [m], n)
    indices = bernoulli_rows(derive_rng(seed), m, n)
    return SubsampledIsometry(base=u, m=m, indices=indices, seed=seed)


def sample_fixed(u: UnitaryOperator, m: int, seed: int) -> SubsampledIsometry:
    """First m elements of a uniform random permutation of [n]; |J| = m always."""
    n = u.n
    check_grid("fixed", [m], n)
    rng = derive_rng(seed)
    indices = np.sort(rng.permutation(n)[:m])
    return SubsampledIsometry(base=u, m=m, indices=indices, seed=seed)


def rows(a: SubsampledIsometry) -> np.ndarray:
    """The real rows of A before its scale: U_J for a real U, and
    [Re U_J; Im U_J] (2|J| x n) for a complex one, whose every row then
    gives two real measurements of a real signal."""
    u_j = a.base.rows(a.indices)
    return np.concatenate([u_j.real, u_j.imag]) if np.iscomplexobj(u_j) else u_j


def apply(a: SubsampledIsometry, x: np.ndarray) -> np.ndarray:
    """sqrt(n/m) * rows(a) @ x for a real x: a.num_rows real measurements."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise DomainError("a measured signal is real")
    check_unitary_n(a.base, x.shape[0])
    return a.scale * (rows(a) @ x)


def check_measurement(a: SubsampledIsometry, b) -> np.ndarray:
    """b as an array, after checking that it is a measurement by a: real,
    with one entry per real row."""
    b = np.asarray(b)
    if np.iscomplexobj(b):
        raise DomainError(f"measurements are real, got a {b.dtype} measurement")
    if b.shape[0] != a.num_rows:
        raise DimensionMismatch(f"measurement length {b.shape[0]} != |J| = {a.num_rows}")
    return b


def apply_adjoint(a: SubsampledIsometry, y: np.ndarray) -> np.ndarray:
    """sqrt(n/m) * rows(a)^T @ y, the transpose of `apply`."""
    y = np.asarray(y)
    if y.shape[0] != a.num_rows:
        raise DimensionMismatch(f"expected length {a.num_rows}, got {y.shape[0]}")
    return a.scale * (rows(a).T @ y)


def isotropy_error(u: UnitaryOperator, m: int, trials: int, seed: int) -> float:
    """||mean_t A_t^* A_t - I||_F over fresh Bernoulli draws.

    A^*A = (n/m) sum_{j in J} U_j^* U_j, so trials only contribute inclusion
    counts per row index, and mean A^*A - I = U^* diag(w - 1) U with w the
    scaled inclusion frequencies. The Frobenius norm is unitarily invariant,
    so the error is ||w - 1||_2 and no entry of U is read.
    """
    check_counts(trials=trials)
    n = u.n
    check_grid("bernoulli", [m], n)
    counts = np.zeros(n)
    for t in range(trials):
        counts[bernoulli_rows(derive_rng(seed, t), m, n)] += 1.0
    # Scaling before dividing makes w exactly 1 when m = n, whatever trials is.
    w = counts * (n / m) / trials
    return float(np.linalg.norm(w - 1.0))


def cramer_chernoff_tail(t: float, m: int, r: float) -> float:
    """Closed-form bound exp(-m*(u*log(u) - u + 1)) with u := t/R, clamped to [0,1].

    R := n*||xi||_U^2 for the measured vector xi; informative only for t > R.
    """
    if t <= 1:
        raise DomainError("t must be > 1")
    if r <= 0:
        raise DomainError("R must be > 0")
    u = t / r
    exponent = -m * (u * math.log(u) - u + 1.0)
    return float(min(1.0, math.exp(min(exponent, 0.0))))

