"""Dense linear-algebra kernels: the Q of a thin QR, the 2->inf norm,
orthonormality checks.

Matrices are plain numpy arrays (float64 or complex128). Everything here is
pure and reentrant.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch, DomainError, GcsError


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a.real)) or (np.iscomplexobj(a) and not np.all(np.isfinite(a.imag))):
        raise DomainError(f"{name} contains NaN/Inf entries")
    return a


def qr_thin(w: np.ndarray) -> np.ndarray:
    """The n x k factor Q of the thin QR of a real n x k matrix W (n >= k):
    orthonormal columns spanning range(W). Column signs are whatever the QR
    gives; Q Q^T, and the row norms of U Q for any U, do not depend on them.

    Raises DomainError if ||W||_F overflows or any diagonal entry of R falls
    below 1e-12 * ||W||_F, and DimensionMismatch if n < k.
    """
    w = check_finite(np.asarray(w, dtype=float), "W")
    if w.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    n, k = w.shape
    if n < k or k < 1:
        raise DimensionMismatch(f"need n >= k >= 1, got shape {w.shape}")
    q, r = np.linalg.qr(w, mode="reduced")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(w)
    if not np.isfinite(norm):
        raise DomainError("the Frobenius norm of W overflows")
    tol = 1e-12 * norm
    if np.any(np.abs(np.diagonal(r)) < tol):
        raise DomainError("R has a near-zero diagonal entry; W is rank deficient")
    return q


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


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a matrix to the toolkit JSON schema.

    {rows, cols, complex, data}: data is the row-major flat float array,
    re/im interleaved when complex; write_json streams it as a JSON list.
    """
    m = check_finite(np.asarray(m))
    if m.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    is_complex = bool(np.iscomplexobj(m))
    # A complex128 array viewed as float64 interleaves re and im.
    flat = np.ascontiguousarray(m, dtype=complex if is_complex else float).view(float).ravel()
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "complex": is_complex,
        "data": flat,
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


# Floats per json.dumps call when write_json streams an array. Saving a
# 20->200->784 VAE with its decoder (6.7 MB + 3.3 MB) took 411-455 ms of CPU
# in the median for chunks of 1 K to 64 K floats, their quartiles
# overlapping, while the tracemalloc peak grows by about 140 bytes per chunk
# float: 0.16 MB at 1 K, 0.58 MB at 4 K, 2.3 MB at 16 K and 7.3 MB at 64 K,
# against 17.7 MB for one json.dumps of the whole file.
JSON_CHUNK = 4096


def write_json(obj, path: str, part: tuple[str, str] | None = None) -> None:
    """Write obj as JSON, byte-identical to json.dumps(obj, default=np.ndarray.tolist).

    obj is built of dicts, lists, JSON scalars and 1-D float arrays, the
    matrix data and bias leaves of the *_to_json builders. Each array is
    streamed JSON_CHUNK floats at a time through the C encoder, so at most
    one chunk's list and text are in memory, not the whole file. With
    part = (key, part_path), obj[key] is also written to part_path as
    write_json(obj[key], part_path) would write it, from the same encoded
    chunks.
    """
    with open(path, "w") as f:
        if part is None:
            _write_value(obj, f.write)
            return
        key, part_path = part
        with open(part_path, "w") as g:
            def both(text: str) -> None:
                f.write(text)
                g.write(text)

            _write_value(obj, f.write, {key: both})


def _write_value(value, write, routes=None) -> None:
    """Write value's JSON text through write; an entry of the dict value
    whose key routes names goes through routes[key] instead."""
    if isinstance(value, np.ndarray):
        write("[")
        for i in range(0, value.size, JSON_CHUNK):
            if i:
                write(", ")
            # json.dumps of the chunk's list, its brackets stripped.
            write(json.dumps(value[i:i + JSON_CHUNK].tolist())[1:-1])
        write("]")
    elif isinstance(value, dict):
        routes = routes or {}
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write((", " if i else "") + json.dumps(key) + ": ")
            _write_value(item, routes.get(key, write))
        write("}")
    elif isinstance(value, list):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _write_value(item, write)
        write("]")
    else:
        write(json.dumps(value))


def read_json(path: str):
    """Parse a JSON file; malformed JSON raises DomainError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise DomainError(f"{path}: malformed JSON: {e}") from None


def load_json(path: str, from_json):
    """from_json applied to a parsed JSON file.

    A file that parses but lacks a key or holds a value from_json rejects,
    such as a NaN or a layer that does not chain, raises DomainError naming
    the file.
    """
    obj = read_json(path)
    try:
        return from_json(obj)
    except KeyError as e:
        raise DomainError(f"{path}: missing key {e}") from None
    except (TypeError, ValueError, GcsError) as e:
        raise DomainError(f"{path}: bad contents: {e}") from None


def save_matrix(m: np.ndarray, path: str) -> None:
    write_json(matrix_to_json(m), path)


def load_matrix(path: str) -> np.ndarray:
    return load_json(path, matrix_from_json)
