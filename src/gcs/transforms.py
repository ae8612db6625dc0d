"""Unitary reference operators (DFT, orthonormal DCT-II, explicit).

An explicit operator holds the matrix it is given. The DFT and the DCT-II
hold no matrix: their entries have closed forms, one function per kind.
Below FFT_MIN_N, `rows` gathers from the dense `matrix` and `apply` is the
dense product `matrix @ x`; from FFT_MIN_N on, `rows` evaluates the closed
form for the rows asked for and `apply` runs an O(n log n) FFT, so no n x n
array is built. `matrix` is built on first use, and only those dense paths
use it: past FFT_MIN_N no code of the toolkit builds it for the DFT or the
DCT-II.

`check_unitary_n` is the one size check wherever a unitary meets its
problem: U acts on R^n, so every product of U with a vector, a weight
matrix, a network or a data set first checks that U is n x n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linops import check_finite, orthonormality_defect

# Smallest n at which apply() runs an FFT and rows() evaluates the closed
# form. Measured on the DCT-II with BLAS at one thread: the dense product
# wins at n <= 128 (8 us against 51 us at 64 x 32, 66 us against 104 us at
# 128 x 64), the two tie at 192 x 64, and the FFT wins from n = 256 (0.13 ms
# against 0.26 ms at 256 x 64; 2.4 ms against 7.7 ms at 784 x 200). At
# n = 64 a gather of 8 to 64 rows takes 3-9 us, the closed form 31-119 us.
FFT_MIN_N = 256


def _dft_rows(n: int, j: np.ndarray) -> np.ndarray:
    """Rows j of the DFT, F_ij = exp(2*pi*i*(i-1)*(j-1)/n)/sqrt(n) (1-based)."""
    return np.exp(2j * np.pi * np.multiply.outer(j, np.arange(n)) / n) / np.sqrt(n)


def _dct_rows(n: int, j: np.ndarray) -> np.ndarray:
    """Rows j of the orthonormal DCT-II: row 0 constant 1/sqrt(n), then
    sqrt(2/n)*cos(pi*i*(2j+1)/(2n)) for row i >= 1 (0-based)."""
    d = np.sqrt(2.0 / n) * np.cos(np.pi * j[..., None] * (2 * np.arange(n) + 1) / (2 * n))
    d[j == 0] = 1.0 / np.sqrt(n)
    return d


_ROWS = {"dft": _dft_rows, "dct": _dct_rows}


@dataclass(frozen=True)
class UnitaryOperator:
    kind: str  # "dft" | "dct" | "explicit"
    n: int
    given: np.ndarray | None = field(default=None, repr=False)  # an explicit U's matrix

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix; built on first use for the DFT and DCT-II."""
        if self.kind == "explicit":
            return self.given
        return _ROWS[self.kind](self.n, np.arange(self.n))

    @property
    def dtype(self) -> np.dtype:
        """complex for the DFT, real for the DCT-II, the given matrix's otherwise."""
        if self.kind == "explicit":
            return self.given.dtype
        return np.dtype(complex if self.kind == "dft" else float)

    def rows(self, j) -> np.ndarray:
        """Rows j of U, equal to `matrix[j]`: j is a row number in [0, n),
        a 1-D row set, or a 2-D stack of row sets. A row number outside
        [0, n) raises IndexError on every path; none wraps."""
        j = np.asarray(j)
        if j.size and (j.min() < 0 or j.max() >= self.n):
            raise IndexError(f"row index out of range for n = {self.n}")
        if self.n < FFT_MIN_N or self.kind == "explicit":
            return self.matrix[j]
        return _ROWS[self.kind](self.n, j)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        check_unitary_n(self, x.shape[0])
        if self.n < FFT_MIN_N or self.kind == "explicit":
            return self.matrix @ x
        if self.kind == "dft":
            return np.fft.ifft(x, axis=0, norm="ortho")
        if np.iscomplexobj(x):
            return _dct2(x.real) + 1j * _dct2(x.imag)
        return _dct2(x)


def check_unitary_n(u: UnitaryOperator, n: int) -> None:
    """Raise DimensionMismatch unless u is n x n, for a problem in R^n."""
    if u.n != n:
        raise DimensionMismatch(f"the unitary is {u.n} x {u.n}, the problem's n is {n}")


# Columns per real FFT in _dct2. At n = 784, k = 200 its temporaries, the
# reordered copy and the spectrum of one block, then take half the output's
# 1.25 MB, where whole-array ones took twice it. Timed there with BLAS at one
# thread, median of eight: 16 columns 3.1 ms, 25 2.1 ms, 50 2.1 ms, 100
# 3.5 ms, all 200 at once 3.6 ms. Columns never interact, so the width
# changes no result.
DCT_BLOCK = 50


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of real x along axis 0 by one real FFT per column
    (Makhoul 1980): y_k = Re(exp(-i*pi*k/(2n)) * V_k), V = FFT of x's even
    entries followed by its odd entries reversed, then the orthonormal scale.
    The FFTs run DCT_BLOCK columns at a time into one preallocated output."""
    n = x.shape[0]
    y = np.empty(x.shape)
    x2, y2 = x.reshape(n, -1), y.reshape(n, -1)
    tw = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))[:, None]
    for s in range(0, x2.shape[1], DCT_BLOCK):
        xb, yb = x2[:, s:s + DCT_BLOCK], y2[:, s:s + DCT_BLOCK]
        a = np.fft.rfft(np.concatenate([xb[0::2], xb[1::2][::-1]]), axis=0)
        a *= tw
        yb[: n // 2 + 1] = a.real
        # For real v, V_{n-k} = conj(V_k), which makes y_{n-k} = -Im(tw_k V_k).
        yb[n // 2 + 1:] = -a.imag[1:(n + 1) // 2][::-1]
        del a  # so the next block's spectrum does not form beside this one
    y *= np.sqrt(2.0 / n)
    y[0] *= np.sqrt(0.5)
    return y


def dft_operator(n: int) -> UnitaryOperator:
    """The unitary DFT of size n (entries in `_dft_rows`)."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return UnitaryOperator(kind="dft", n=n)


def dct2_operator(n: int) -> UnitaryOperator:
    """The orthonormal DCT-II of size n (entries in `_dct_rows`)."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return UnitaryOperator(kind="dct", n=n)


def explicit_operator(matrix: np.ndarray) -> UnitaryOperator:
    """Wrap an explicit matrix; rejects non-unitary input (tol 1e-8)."""
    m = check_finite(np.asarray(matrix), "U")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("explicit operator must be a square matrix")
    n = m.shape[0]
    if orthonormality_defect(m) > 1e-8:
        raise DomainError("||U*U - I||_F exceeds 1e-8")
    return UnitaryOperator(kind="explicit", n=n, given=m)


def identity_operator(n: int) -> UnitaryOperator:
    return UnitaryOperator(kind="explicit", n=n, given=np.eye(n))
