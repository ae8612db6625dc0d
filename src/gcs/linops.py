"""Dense linear-algebra kernels: thin QR, the 2->inf norm, orthonormality checks.

Matrices are plain numpy arrays (float64 or complex128). Everything here is
pure and reentrant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotOrthonormal, RankDeficient


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a.real)) or (np.iscomplexobj(a) and not np.all(np.isfinite(a.imag))):
        raise ValueError(f"{name} contains NaN/Inf entries")
    return a


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factors with nonnegative R diagonal (unique for full-rank input)."""

    q: np.ndarray
    r: np.ndarray


def qr_thin(w: np.ndarray) -> QRFactors:
    """Thin QR of a real n x k matrix (n >= k) with nonnegative diag(R).

    Raises RankDeficient if any diagonal entry of R falls below
    1e-12 * ||W||_F, and DimensionMismatch if n < k.
    """
    w = check_finite(np.asarray(w, dtype=float), "W")
    if w.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    n, k = w.shape
    if n < k or k < 1:
        raise DimensionMismatch(f"need n >= k >= 1, got shape {w.shape}")
    q, r = np.linalg.qr(w, mode="reduced")
    # Fix the sign convention: nonnegative diagonal of R.
    d = np.diagonal(r).copy()
    s = np.where(d < 0, -1.0, 1.0)
    q = q * s
    r = s[:, None] * r
    tol = 1e-12 * np.linalg.norm(w)
    if np.any(np.abs(np.diagonal(r)) < tol):
        raise RankDeficient("R has a near-zero diagonal entry; W is rank deficient")
    return QRFactors(q=q, r=r)


def two_to_inf_norm(m: np.ndarray) -> float:
    """Max row l2 norm, ||M||_{2->inf}; modulus-based for complex rows."""
    m = check_finite(m)
    if m.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    if m.size == 0:
        return 0.0
    return float(np.sqrt(np.max(np.sum(np.abs(m) ** 2, axis=1))))


def orthonormality_defect(q: np.ndarray) -> float:
    """||Q^* Q - I||_F."""
    q = np.asarray(q)
    k = q.shape[1]
    return float(np.linalg.norm(q.conj().T @ q - np.eye(k)))


def max_row_norm_bound_check(q: np.ndarray) -> bool:
    """Check max_i ||Q_i||_2 >= sqrt(k/n) - 1e-12 for orthonormal-column Q.

    Always true for orthonormal columns (the mean squared row norm is k/n).
    """
    q = check_finite(q, "Q")
    if orthonormality_defect(q) > 1e-8:
        raise NotOrthonormal("columns of Q are not orthonormal to 1e-8")
    n, k = q.shape
    return two_to_inf_norm(q) >= np.sqrt(k / n) - 1e-12


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a matrix to the toolkit JSON schema.

    {rows, cols, complex, data}: row-major flat list, re/im interleaved
    when complex.
    """
    m = check_finite(np.asarray(m))
    if m.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    is_complex = bool(np.iscomplexobj(m))
    if is_complex:
        flat = np.empty(2 * m.size)
        flat[0::2] = m.real.ravel()
        flat[1::2] = m.imag.ravel()
    else:
        flat = np.asarray(m, dtype=float).ravel()
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "complex": is_complex,
        "data": flat.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if obj.get("complex", False):
        if data.size != 2 * rows * cols:
            raise DimensionMismatch("data length does not match 2*rows*cols")
        m = (data[0::2] + 1j * data[1::2]).reshape(rows, cols)
    else:
        if data.size != rows * cols:
            raise DimensionMismatch("data length does not match rows*cols")
        m = data.reshape(rows, cols)
    return check_finite(m)


def write_json(obj, path: str) -> None:
    """Write obj as compact JSON, byte-identical to json.dump(obj, f).

    json.dumps runs the C encoder; json.dump streams through the pure-Python
    one, which takes twice as long on a weight matrix.
    """
    with open(path, "w") as f:
        f.write(json.dumps(obj))


def read_json(path: str):
    """Parse a JSON file; malformed JSON raises DomainError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise DomainError(f"{path}: malformed JSON: {e}") from None


def save_matrix(m: np.ndarray, path: str) -> None:
    write_json(matrix_to_json(m), path)


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(read_json(path))
