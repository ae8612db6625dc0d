"""Coherence: exact subspace values, the QR final-layer heuristic, Monte-Carlo
chord estimates, the training regularizer, and sample-complexity formulas.

Coherence of a set T w.r.t. a unitary U is sup over unit x in T of ||Ux||_inf.
For a subspace spanned by orthonormal Q it equals ||U Q||_{2->inf} exactly
(`subspace_coherence`, the one place that formula is evaluated); for a ReLU
network the final-layer heuristic is the subspace coherence of range(W^(d)),
||D Q1||_{2->inf} with Q1 from the thin QR of W^(d), and it upper-bounds the
coherence of the expanded chord set.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, GcsError, check_counts, check_number
# perfbench/instrument.py wraps coherence.forward, which nothing here calls.
from .gnn import GenerativeNetwork, forward, hidden, log_region_bound  # noqa: F401
from .linops import orthonormality_defect, qr_thin, two_to_inf_norm
from .sampling import derive_rng
from .transforms import UnitaryOperator, check_unitary_n


def subspace_coherence(u: UnitaryOperator, q: np.ndarray) -> float:
    """Exact coherence of range(Q): ||U Q||_{2->inf} for orthonormal Q."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise DimensionMismatch(f"Q is {q.ndim}-d, not a matrix")
    check_unitary_n(u, q.shape[0])
    if orthonormality_defect(q) > 1e-8:
        raise DomainError("columns of Q are not orthonormal to 1e-8")
    return two_to_inf_norm(u.apply(q))


def network_coherence_heuristic(g: GenerativeNetwork, u: UnitaryOperator) -> float:
    """The subspace coherence of range(W^(d)), ||D Q1||_{2->inf} with
    Q1 = qr_thin(W^(d)); it upper-bounds the coherence of the expanded chord
    set.
    """
    check_unitary_n(u, g.ambient_dim)
    return subspace_coherence(u, qr_thin(g.weights[-1]))


class ChordSampler:
    """Chords G(z1) - G(z2) of range(G), and their images under a unitary U.

    The final layer is linear, so every chord is W^(d) dh, where
    dh = h(z1) - h(z2) is the difference of the last hidden layers (the final
    bias cancels). The sampler keeps chords in those coordinates: the
    projection P is U W^(d), and the chord norms come from the Gram matrix
    W^(d)^T W^(d), which is exact however closely U is unitary.

    `parts` holds P as real matrices: (P,) for a real U, (Re P, Im P) for a
    complex one, so real chords are never cast to complex for a product.
    """

    def __init__(self, g: GenerativeNetwork, u: UnitaryOperator):
        check_unitary_n(u, g.ambient_dim)
        self.g = g
        w = g.weights[-1]
        proj, self._gram = u.apply(w), w.T @ w
        self.parts = (proj.real.copy(), proj.imag.copy()) if np.iscomplexobj(proj) else (proj,)

    def moduli(self, z1: np.ndarray, z2: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """|P[rows] u| entrywise (all rows when rows is None), one column per
        unit chord u of the latent columns z1, z2 whose norm exceeds 1e-10."""
        c = hidden(self.g, z1) - hidden(self.g, z2)
        # Rounding can take the form slightly below 0 for c in the null space
        # of W^(d) (k_{d-1} > n); such a chord is 0 and gets dropped.
        norms = np.sqrt(np.maximum(np.sum(c * (self._gram @ c), axis=0), 0.0))
        ok = norms > 1e-10
        unit = c[:, ok]
        unit /= norms[ok]
        parts = self.parts if rows is None else [p[rows] for p in self.parts]
        if len(parts) == 1:
            prod = parts[0] @ unit
            return np.abs(prod, out=prod)
        # sqrt(re^2 + im^2) in place; np.hypot is about ten times slower, and
        # unit chords keep the squares far from overflow.
        re, im = (p @ unit for p in parts)
        re *= re
        im *= im
        re += im
        return np.sqrt(re, out=re)


# Latent pairs per chord_coherence_mc draw; it fixes which pairs a seed gives.
MC_CHUNK = 8192

# Bytes of |P c| for one column block of a chord_coherence_mc chunk: 2 MiB is
# 334 columns at n = 784 (half as many for a complex U, which forms two real
# products). Timed at n = 784 with 40,000 samples, one BLAS thread, three
# runs each: whole 8,192-column chunks (48 MiB) took 0.65-0.72 s at 132 MB
# peak RSS, 6 MiB 0.55-0.70 s at 54 MB, 2 MiB 0.57-0.63 s at 47 MB, 0.75 MiB
# 0.70-0.75 s at 44 MB; the estimate was bit-identical at every width.
MC_BLOCK_BYTES = 2 * 2**20


def chord_coherence_mc(g: GenerativeNetwork, u: UnitaryOperator, samples: int, seed: int) -> float:
    """Monte-Carlo lower bound on the coherence of range(G) - range(G).

    Latent pairs are standard Gaussian, drawn MC_CHUNK pairs at a time; chords
    of norm 1e-10 or less are skipped. Each chunk is evaluated in column
    blocks of at most MC_BLOCK_BYTES of |P c|; columns never interact, so the
    block width changes no result.
    """
    check_counts(samples=samples)
    chords = ChordSampler(g, u)
    width = max(1, MC_BLOCK_BYTES // (8 * u.n * len(chords.parts)))
    rng = derive_rng(seed)
    k = g.code_dim
    best = 0.0
    for done in range(0, samples, MC_CHUNK):
        batch = min(MC_CHUNK, samples - done)
        z1 = rng.standard_normal((k, batch))
        z2 = rng.standard_normal((k, batch))
        for s in range(0, batch, width):
            mod = chords.moduli(z1[:, s:s + width], z2[:, s:s + width])
            best = max(best, float(np.max(mod, initial=0.0)))
            del mod  # so the next block's |P u| does not form beside this one
    # Every chord moduli returns has norm 1, so its image under U has an entry
    # of at least 1/sqrt(n): best is 0 exactly when all were dropped.
    if best == 0.0:
        raise GcsError("all sampled chords were below norm tolerance")
    return best


def coherence_lower_bound(k: int, n: int) -> float:
    """sqrt(k/n): no k-dim subspace of an n-dim space does better."""
    if k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return math.sqrt(k / n)


def typical_coherence_bound(widths: list[int], gamma: float = 0.0) -> float:
    """Gaussian-last-layer coherence scale (up to an absolute constant) of a
    network of widths [k, k_1, ..., n]:

    sqrt(k/n) + sqrt(log(n)/n) + sqrt((k/n)*sum log(2e*k_i/k)) + gamma/sqrt(n)
    """
    check_number("gamma", gamma, 0)
    n = widths[-1]
    return (
        math.sqrt(widths[0] / n)
        + math.sqrt(math.log(n) / n)
        + math.sqrt(log_region_bound(widths) / n)
        + gamma / math.sqrt(n)
    )


# Rows per block of the regularizer's row norms and rank-one gradient term.
# At 784 x 200 a call then peaks at 1.9 MB traced, set by the DCT's output
# and one column block, against 3.0 MB with one block of all rows; 32 to 256
# rows timed alike within the host's noise (5-7 ms a call).
REG_ROWS = 128


def regularizer(w: np.ndarray, u: UnitaryOperator, lam: float) -> tuple[float, np.ndarray]:
    """rho(W) = ||D W||_{2->inf} + lam*||W^T W - I||_F, with a subgradient.

    The 2->inf term differentiates through the maximizing row (smallest index
    on ties); the Frobenius term's gradient is zeroed below 1e-12. D W is
    `u.apply(w)`, an FFT from n = FFT_MIN_N on (see `transforms`).
    """
    w = np.asarray(w, dtype=float)
    check_number("lambda", lam, 0)
    if w.ndim != 2:
        raise DimensionMismatch(f"W is {w.ndim}-d, not a matrix")
    check_unitary_n(u, w.shape[0])
    n, k = w.shape
    # Each product is formed in the order of the formula, REG_ROWS rows at a
    # time, so the results are bit for bit those of whole-array products.
    dw = u.apply(w)
    row_norms = np.empty(n)
    for s in range(0, n, REG_ROWS):
        sq = np.abs(dw[s:s + REG_ROWS])
        sq **= 2
        row_norms[s:s + REG_ROWS] = np.sqrt(np.sum(sq, axis=1))
        del sq  # so that the next block's square does not form beside it
    i_star = int(np.argmax(row_norms))  # argmax takes the first maximizer
    value = float(row_norms[i_star])
    top = np.conj(dw[i_star])  # a copy, so that D W can go
    del dw
    e = w.T @ w - np.eye(k)
    fro = float(np.linalg.norm(e))
    value += lam * fro
    # One n x k buffer holds the gradient: the Frobenius term f first, then
    # the rank-one term r added in row blocks. 0 + f turns each -0 of f (they
    # occur at lam = 0) into +0, so that, as in 0 + r + f, no entry is -0.
    if fro > 1e-12:
        grad = w @ e
        grad *= 2.0 * lam
        grad /= fro
        grad += 0.0
    else:
        grad = np.zeros_like(w)
    if row_norms[i_star] > 0:
        d_row = u.rows(i_star)
        for s in range(0, n, REG_ROWS):
            tmp = np.real(np.outer(d_row[s:s + REG_ROWS], top))
            tmp /= row_norms[i_star]
            grad[s:s + REG_ROWS] += tmp
            del tmp
    return value, grad


_KIND_PARAMS = {"RIP": (1.0, 2.0), "DiffRIP": (2.0, 4.0), "GCS": (2.0, 4.0)}


def sample_complexity(alpha: float, widths: list[int], epsilon: float, delta: float,
                      kind: str = "RIP", c: float = 1.0) -> float:
    """m >= c*(alpha^2*n/delta^2)*(factor*k*sum log(2e*k_i/k) + log(mult*k/eps))
    for a network of widths [k, k_1, ..., n].

    (factor, mult) is (1, 2) for RIP and (2, 4) for DiffRIP/GCS; GCS fixes
    delta = 1/3 per the recovery theorem's proof.
    """
    if kind not in _KIND_PARAMS:
        raise DomainError(f"unknown kind {kind!r}")
    for name, value in (("alpha", alpha), ("epsilon", epsilon), ("delta", delta), ("c", c)):
        check_number(name, value, positive=True)
    factor, mult = _KIND_PARAMS[kind]
    if kind == "GCS":
        delta = 1.0 / 3.0
    k, n = widths[0], widths[-1]
    return c * (alpha**2 * n / delta**2) * (factor * log_region_bound(widths)
                                            + math.log(mult * k / epsilon))


def coherence_report(g: GenerativeNetwork, u: UnitaryOperator, mc_samples: int,
                     seed: int) -> dict:
    """The report `gcs coherence` prints: the heuristic, the MC chord
    estimate and the bounds, with constant_c the c of sample_complexity's
    default, 1.0."""
    check_counts(samples=mc_samples)  # before the heuristic's QR
    return {
        "alpha_heuristic": network_coherence_heuristic(g, u),
        "alpha_mc": chord_coherence_mc(g, u, mc_samples, seed),
        "mc_samples": mc_samples,
        "lower_bound": coherence_lower_bound(g.code_dim, u.n),
        "typical_bound": typical_coherence_bound(g.widths),
        "seed": seed,
        "constant_c": 1.0,
    }
