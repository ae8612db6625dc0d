"""Unitary reference operators (DFT, orthonormal DCT-II, explicit) and ||.||_U.

Operators carry an explicit dense matrix; at desk scale O(n^2) application is
the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal
from .linops import check_finite


@dataclass(frozen=True)
class UnitaryOperator:
    kind: str  # "dft" | "dct" | "explicit"
    n: int
    matrix: np.ndarray = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"operator dim {self.n}, vector dim {x.shape[0]}")
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape[0] != self.n:
            raise DimensionMismatch(f"operator dim {self.n}, vector dim {y.shape[0]}")
        return self.matrix.conj().T @ y


def dft_operator(n: int) -> UnitaryOperator:
    """DFT matrix F_ij = exp(2*pi*i*(i-1)*(j-1)/n)/sqrt(n) (1-based indices)."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    idx = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    return UnitaryOperator(kind="dft", n=n, matrix=f)


def dct2_operator(n: int) -> UnitaryOperator:
    """Orthonormal DCT-II: first row constant 1/sqrt(n), then
    sqrt(2/n)*cos(pi*i*(2j+1)/(2n)) for row i >= 1 (0-based)."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * i * (2 * j + 1) / (2 * n))
    d[0, :] = 1.0 / np.sqrt(n)
    return UnitaryOperator(kind="dct", n=n, matrix=d)


def explicit_operator(matrix: np.ndarray) -> UnitaryOperator:
    """Wrap an explicit matrix; rejects non-unitary input (tol 1e-8)."""
    m = check_finite(np.asarray(matrix), "U")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("explicit operator must be a square matrix")
    n = m.shape[0]
    if np.linalg.norm(m.conj().T @ m - np.eye(n)) > 1e-8:
        raise NotOrthonormal("||U*U - I||_F exceeds 1e-8")
    return UnitaryOperator(kind="explicit", n=n, matrix=m)


def identity_operator(n: int) -> UnitaryOperator:
    return UnitaryOperator(kind="explicit", n=n, matrix=np.eye(n))


def measurement_norm(u: UnitaryOperator, x: np.ndarray) -> float:
    """||x||_U := ||Ux||_inf, the largest |<U_i, x>|."""
    x = np.asarray(x)
    if x.shape[0] != u.n:
        raise DimensionMismatch(f"operator dim {u.n}, vector dim {x.shape[0]}")
    return float(np.max(np.abs(u.apply(x))))
