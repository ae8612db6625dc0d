"""Unitary reference operators (DFT, orthonormal DCT-II, explicit) and ||.||_U.

Operators carry an explicit dense matrix. `UnitaryOperator.apply` runs the
DFT and the DCT-II as O(n log n) FFTs once n reaches FFT_MIN_N, and as the
dense product `matrix @ x` below it (and always for explicit unitaries).
Callers that need rows or products of the matrix itself, such as
`sampling`'s row gathers, `coherence.ChordSampler`'s U W^(d) and the
subspace products, use `matrix` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal
from .linops import check_finite

# Smallest n at which apply() runs an FFT. Measured on the DCT-II with BLAS at
# one thread: the dense product wins at n <= 128 (8 us against 51 us at
# 64 x 32, 66 us against 104 us at 128 x 64), the two tie at 192 x 64, and
# the FFT wins from n = 256 (0.13 ms against 0.26 ms at 256 x 64; 2.4 ms
# against 7.7 ms at 784 x 200).
FFT_MIN_N = 256


@dataclass(frozen=True)
class UnitaryOperator:
    kind: str  # "dft" | "dct" | "explicit"
    n: int
    matrix: np.ndarray = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"operator dim {self.n}, vector dim {x.shape[0]}")
        if self.n < FFT_MIN_N or self.kind == "explicit":
            return self.matrix @ x
        if self.kind == "dft":
            return np.fft.ifft(x, axis=0, norm="ortho")
        if np.iscomplexobj(x):
            return _dct2(x.real) + 1j * _dct2(x.imag)
        return _dct2(x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape[0] != self.n:
            raise DimensionMismatch(f"operator dim {self.n}, vector dim {y.shape[0]}")
        return self.matrix.conj().T @ y


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of real x along axis 0 by one real FFT per column
    (Makhoul 1980): y_k = Re(exp(-i*pi*k/(2n)) * V_k), V = FFT of x's even
    entries followed by its odd entries reversed, then the orthonormal scale."""
    n = x.shape[0]
    v = np.concatenate([x[0::2], x[1::2][::-1]])
    tw = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    a = np.fft.rfft(v, axis=0) * tw.reshape((-1,) + (1,) * (x.ndim - 1))
    y = np.empty(x.shape)
    y[: n // 2 + 1] = a.real
    # For real v, V_{n-k} = conj(V_k), which makes y_{n-k} = -Im(tw_k V_k).
    y[n // 2 + 1:] = -a.imag[1:(n + 1) // 2][::-1]
    y *= np.sqrt(2.0 / n)
    y[0] *= np.sqrt(0.5)
    return y


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
