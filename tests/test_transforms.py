import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.errors import DimensionMismatch, NotOrthonormal
from gcs.transforms import (
    dct2_operator,
    dft_operator,
    explicit_operator,
    identity_operator,
    measurement_norm,
)


@pytest.mark.parametrize("n", [1, 2, 8, 16, 64])
@pytest.mark.parametrize("make", [dft_operator, dct2_operator])
def test_unitarity(n, make):
    u = make(n)
    defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(n))
    assert defect <= 1e-10


def test_dft_n4_hand_values():
    # Positive-exponent convention: F_jk = exp(2*pi*i*j*k/4)/2.
    f = dft_operator(4).matrix
    w = 1j  # exp(2*pi*i/4)
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, w, w**2, w**3],
            [1, w**2, w**4, w**6],
            [1, w**3, w**6, w**9],
        ]
    )
    np.testing.assert_allclose(f, expected, atol=1e-14)


def test_dct_n2_hand_values():
    d = dct2_operator(2).matrix
    s = np.sqrt(0.5)
    np.testing.assert_allclose(d, np.array([[s, s], [s, -s]]), atol=1e-14)


def test_dct_first_row_constant():
    d = dct2_operator(9).matrix
    np.testing.assert_allclose(d[0], np.full(9, 1.0 / 3.0), atol=1e-14)


@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_parseval(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    for u in (dft_operator(n), dct2_operator(n)):
        assert np.linalg.norm(u.apply(x)) == pytest.approx(np.linalg.norm(x), abs=1e-9)


def test_adjoint_inverts():
    u = dft_operator(12)
    x = np.random.default_rng(1).standard_normal(12)
    np.testing.assert_allclose(u.apply_adjoint(u.apply(x)), x, atol=1e-12)


def test_explicit_operator_validates():
    q = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))[0]
    u = explicit_operator(q)
    assert u.kind == "explicit" and u.n == 6
    with pytest.raises(NotOrthonormal):
        explicit_operator(q * 1.01)
    with pytest.raises(DimensionMismatch):
        explicit_operator(np.ones((3, 2)))


def test_identity_operator_norm_is_linf():
    u = identity_operator(5)
    x = np.array([1.0, -3.0, 2.0, 0.0, 0.5])
    assert measurement_norm(u, x) == 3.0


def test_measurement_norm_matches_direct_max():
    u = dct2_operator(16)
    x = np.random.default_rng(4).standard_normal(16)
    direct = max(abs(u.matrix[i] @ x) for i in range(16))
    assert measurement_norm(u, x) == pytest.approx(direct, rel=1e-12)


@given(st.integers(1, 24), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_norm_sandwich(n, seed):
    # ||x||_2/sqrt(n) <= ||x||_U <= ||x||_2 for unitary U.
    x = np.random.default_rng(seed).standard_normal(n)
    l2 = np.linalg.norm(x)
    for u in (dft_operator(n), dct2_operator(n)):
        v = measurement_norm(u, x)
        assert v <= l2 + 1e-9
        assert v >= l2 / np.sqrt(n) - 1e-9


def test_dimension_checks():
    u = dft_operator(8)
    with pytest.raises(DimensionMismatch):
        u.apply(np.zeros(7))
    with pytest.raises(DimensionMismatch):
        measurement_norm(u, np.zeros(9))
