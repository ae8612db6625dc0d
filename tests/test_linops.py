import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.errors import DimensionMismatch, DomainError
from gcs.linops import (
    check_finite,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    orthonormality_defect,
    qr_thin,
    save_matrix,
    two_to_inf_norm,
)


def gram_schmidt_oracle(w):
    """Independent classical Gram-Schmidt QR for cross-checking qr_thin."""
    n, k = w.shape
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    for j in range(k):
        v = w[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ w[:, j]
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", [(8, 3), (16, 16), (50, 7)])
def test_qr_thin_matches_gram_schmidt(seed, shape):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape)
    q = qr_thin(w)
    qo, _ = gram_schmidt_oracle(w)
    # Column signs are free, so the factors agree through their projector
    # onto range(W), which fixes every column up to its sign.
    np.testing.assert_allclose(q @ q.T, qo @ qo.T, atol=1e-8)
    np.testing.assert_allclose(np.abs(q), np.abs(qo), atol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_qr_thin_factor_properties(seed):
    rng = np.random.default_rng(100 + seed)
    n, k = int(rng.integers(3, 40)), int(rng.integers(1, 3))
    k = min(n, k + int(rng.integers(0, n)))
    w = rng.standard_normal((n, k))
    q = qr_thin(w)
    assert q.shape == (n, k)
    assert orthonormality_defect(q) < 1e-10
    # Q Q^T projects onto range(W): it fixes every column of W.
    np.testing.assert_allclose(q @ (q.T @ w), w, atol=1e-10)


def test_qr_thin_rank_deficient():
    w = np.ones((6, 2))  # second column is a copy of the first
    with pytest.raises(DomainError, match="R has a near-zero diagonal entry; W is rank deficient"):
        qr_thin(w)


def test_qr_thin_shape_errors():
    with pytest.raises(DimensionMismatch):
        qr_thin(np.ones((2, 5)))
    with pytest.raises(DimensionMismatch):
        qr_thin(np.ones(4))
    with pytest.raises(DomainError, match="W contains NaN/Inf entries"):
        qr_thin(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_complex_matrix_with_a_nonfinite_imaginary_part_is_rejected(bad):
    # The real parts are all finite; only one imaginary part is not.
    m = np.array([[1.0 + 0.0j, 2.0 + 1.0j], [complex(0.0, bad), 3.0 + 0.0j]])
    assert np.all(np.isfinite(m.real))
    with pytest.raises(DomainError, match="^matrix contains NaN/Inf entries$"):
        check_finite(m)
    with pytest.raises(DomainError, match="^M contains NaN/Inf entries$"):
        check_finite(m, "M")


def test_two_to_inf_is_max_row_norm():
    m = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert two_to_inf_norm(m) == 5.0
    mc = np.array([[3.0 + 4.0j, 0.0], [1.0, 1.0]])
    assert two_to_inf_norm(mc) == pytest.approx(5.0)


def test_two_to_inf_sphere_sampling_oracle():
    # ||M||_{2->inf} = sup over unit x of ||Mx||_inf. Random unit vectors never
    # exceed it and come close when aimed at the heaviest row.
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 6))
    norm = two_to_inf_norm(m)
    xs = rng.standard_normal((6, 2000))
    xs /= np.linalg.norm(xs, axis=0)
    samples = np.max(np.abs(m @ xs), axis=0)
    assert np.max(samples) <= norm + 1e-12
    i = np.argmax(np.linalg.norm(m, axis=1))
    aimed = m[i] / np.linalg.norm(m[i])
    assert np.max(np.abs(m @ aimed)) == pytest.approx(norm, rel=1e-12)


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(-100.0, 100.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_two_to_inf_homogeneity(rows, cols, c, seed):
    m = np.random.default_rng(seed).standard_normal((rows, cols))
    assert two_to_inf_norm(c * m) == pytest.approx(abs(c) * two_to_inf_norm(m), abs=1e-9)


def test_two_to_inf_empty_and_errors():
    assert two_to_inf_norm(np.zeros((0, 4))) == 0.0
    with pytest.raises(DimensionMismatch):
        two_to_inf_norm(np.zeros(3))


def test_orthonormality_defect():
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 4)))[0]
    assert orthonormality_defect(q) < 1e-12
    assert orthonormality_defect(2.0 * q) == pytest.approx(np.sqrt(4 * 9.0))


@pytest.mark.parametrize("seed", range(20))
def test_max_row_norm_bound_always_holds(seed):
    # Mean squared row norm of orthonormal Q is k/n, so the max clears sqrt(k/n).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 64))
    k = int(rng.integers(1, n + 1))
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    assert two_to_inf_norm(q) >= np.sqrt(k / n) - 1e-12


@pytest.mark.parametrize("complex_", [False, True])
def test_matrix_json_roundtrip(complex_):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 3))
    if complex_:
        m = m + 1j * rng.standard_normal((5, 3))
    obj = matrix_to_json(m)
    assert obj["rows"] == 5 and obj["cols"] == 3 and obj["complex"] == complex_
    json.dumps(obj, default=np.ndarray.tolist)  # serializable once its arrays are lists
    np.testing.assert_array_equal(matrix_from_json(obj), m)


def test_matrix_json_bad_length():
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"rows": 2, "cols": 2, "complex": False, "data": [1.0, 2.0]})


def test_matrix_file_roundtrip(tmp_path):
    m = np.random.default_rng(9).standard_normal((4, 4)) * 1j
    path = tmp_path / "m.json"
    save_matrix(m, str(path))
    np.testing.assert_array_equal(load_matrix(str(path)), m)
    assert path.read_bytes() == json.dumps(matrix_to_json(m), default=np.ndarray.tolist).encode()
