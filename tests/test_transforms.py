import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcs.coherence import (
    ChordSampler,
    chord_coherence_mc,
    network_coherence_heuristic,
    regularizer,
    subspace_coherence,
)
from gcs.errors import DimensionMismatch, DomainError, GcsError
from gcs.gnn import GenerativeNetwork
from gcs.harness import SubspaceRipConfig, SweepConfig, run_measurement_sweep, run_subspace_rip
from gcs.recovery import RecoveryConfig, recover_batch
from gcs.sampling import apply, apply_adjoint, derive_rng, sample_fixed
from gcs.training import TrainConfig, synth_dataset, train_vae
from gcs.transforms import (
    FFT_MIN_N,
    KINDS,
    UnitaryOperator,
    dct2_operator,
    explicit_operator,
)


def dense_dft(n):
    """The dense DFT build that rows() must reproduce entry for entry."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def dense_dct(n):
    """The dense orthonormal DCT-II build that rows() must reproduce."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * i * (2 * j + 1) / (2 * n))
    d[0, :] = 1.0 / np.sqrt(n)
    return d


# Each table kind's constructor and its independent dense build, by the
# kind's name in transforms.KINDS, and the id its tests run under.
ORACLES = {"dft": (partial(UnitaryOperator, "dft"), dense_dft), "dct": (dct2_operator, dense_dct)}
IDS = {"dft": "dft_operator", "dct": "dct2_operator"}
# The per-kind tests run over every kind in the table.
MAKERS = [pytest.param(ORACLES[name][0], id=IDS[name]) for name in KINDS]


def test_every_kind_has_an_oracle():
    # A kind added to the table without an oracle here fails this test, so
    # none lands untested.
    assert list(ORACLES) == list(KINDS)
    assert [make(4).kind for make, _ in ORACLES.values()] == list(KINDS)


@pytest.mark.parametrize("kind, n, given", [
    ("walsh", 256, None),
    (["dct"], 4, None),
    ("explicit", 4, None),
    ("explicit", 4, np.eye(3)),
    ("dct", 4, np.eye(4)),
    ("dct", 0, None),
    ("dft", 2.0, None),
    ("explicit", 0, np.eye(0)),
])
def test_an_operator_checks_its_fields_when_built(kind, n, given):
    # n is an integer >= 1; kind is a table name with no matrix, or
    # "explicit" with an n x n one.
    with pytest.raises(GcsError):
        UnitaryOperator(kind, n, given)


@pytest.mark.parametrize("n", [1, 2, 8, 16, 64])
@pytest.mark.parametrize("make", MAKERS)
def test_unitarity(n, make):
    u = make(n)
    defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(n))
    assert defect <= 1e-10


def test_dft_n4_hand_values():
    # Positive-exponent convention: F_jk = exp(2*pi*i*j*k/4)/2.
    f = UnitaryOperator("dft", 4).matrix
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
    for kind in KINDS:
        u = UnitaryOperator(kind, n)
        assert np.linalg.norm(u.apply(x)) == pytest.approx(np.linalg.norm(x), abs=1e-9)


def test_adjoint_inverts():
    # With every row sampled, A = U, and the subsampled adjoint inverts it.
    a = sample_fixed(UnitaryOperator("dft", 12), 12, seed=0)
    x = np.random.default_rng(1).standard_normal(12)
    np.testing.assert_allclose(apply_adjoint(a, apply(a, x)), x, atol=1e-12)


def test_explicit_operator_validates():
    q = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))[0]
    u = explicit_operator(q)
    assert u.kind == "explicit" and u.n == 6
    assert u.dtype == np.float64 and np.array_equal(u.rows([4, 1]), q[[4, 1]])
    with pytest.raises(DomainError, match=r"\|\|U\*U - I\|\|_F exceeds 1e-8"):
        explicit_operator(q * 1.01)
    with pytest.raises(DimensionMismatch):
        explicit_operator(np.ones((3, 2)))


def test_dimension_checks():
    u = UnitaryOperator("dft", 8)
    with pytest.raises(DimensionMismatch):
        u.apply(np.zeros(7))


@pytest.mark.parametrize("n", [63, 64, FFT_MIN_N - 1, FFT_MIN_N, FFT_MIN_N + 1, 784])
@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("shape", [(), (5,)])
def test_apply_matches_dense_product(n, make, shape):
    # At and above FFT_MIN_N apply() runs an FFT; it must agree with the matrix.
    u = make(n)
    x = np.random.default_rng(n).standard_normal((n, *shape))
    want = u.matrix @ x
    np.testing.assert_allclose(u.apply(x), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_fft_dct_of_complex_input():
    u = dct2_operator(FFT_MIN_N)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((FFT_MIN_N, 3)) + 1j * rng.standard_normal((FFT_MIN_N, 3))
    want = u.matrix @ x
    np.testing.assert_allclose(u.apply(x), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", [255, 256, 257, 784])
@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("shape", [(), (5,)])
def test_apply_adjoint_matches_dense_product(n, make, shape):
    # sampling.apply_adjoint reads U_J through rows(): a gather below
    # FFT_MIN_N, the closed form from it on. Either way it is the dense
    # product sqrt(n/m) * U_J^T y for a real U. A complex U's rows enter as
    # [Re U_J; Im U_J], so for y = [y1; y2] it is
    # sqrt(n/m) * Re(U_J^* (y1 + i y2)).
    u = make(n)
    a = sample_fixed(u, 32, seed=n)
    u_j = u.matrix[a.indices]
    rng = np.random.default_rng(n)
    y = rng.standard_normal((32, *shape)) + 1j * rng.standard_normal((32, *shape))
    if np.iscomplexobj(u_j):
        pairs = [(np.concatenate([y.real, y.imag]), np.real(u_j.conj().T @ y))]
    else:
        pairs = [(y, u_j.T @ y), (y.real, u_j.T @ y.real)]
    for y, want in pairs:
        want = a.scale * want
        np.testing.assert_allclose(apply_adjoint(a, y), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("make", MAKERS)
def test_apply_adjoint_builds_no_dense_matrix_at_n1024(make):
    # The dense DFT at n = 1024 is 16 MiB; the adjoint of a subsampled
    # operator evaluates only its 8 rows.
    u = make(1024)
    a = sample_fixed(u, 8, seed=8)
    y = np.random.default_rng(8).standard_normal(a.num_rows)
    tracemalloc.start()
    try:
        apply_adjoint(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and "matrix" not in vars(u)


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("shape", [(), (7,)])
def test_apply_below_crossover_is_the_dense_product(make, shape):
    u = make(64)
    x = np.random.default_rng(6).standard_normal((64, *shape))
    assert np.array_equal(u.apply(x), u.matrix @ x)


@pytest.mark.parametrize("n", [64, FFT_MIN_N, 300, 784, 1024])
@pytest.mark.parametrize("make, dense", [pytest.param(*ORACLES[name], id=f"{IDS[name]}-dense_{name}")
                                         for name in KINDS])
def test_rows_equal_the_dense_build(n, make, dense):
    # Below FFT_MIN_N rows() gathers from the matrix; from it on, it evaluates
    # the closed form. Either way every entry is the dense build's, bit for bit.
    u, want = make(n), dense(n)
    rng = np.random.default_rng(n)
    for size in (1, 7, 33, n // 2):
        j = np.sort(rng.choice(n, size, replace=False))
        j[0] = 0  # the DCT's constant row
        stack = np.stack([j, np.sort(rng.choice(n, size, replace=False))])
        assert np.array_equal(u.rows(j), want[j])
        assert np.array_equal(u.rows(stack), want[stack])
    assert np.array_equal(u.rows(n - 1), want[n - 1])
    assert u.rows(j).dtype == u.dtype
    assert np.array_equal(u.matrix, want)


def test_rows_reject_an_index_out_of_range():
    # One index rule on every path: the matrix gather below FFT_MIN_N and
    # for an explicit U, and the closed form from FFT_MIN_N on. A negative
    # row number never wraps to a row counted from the end, the closed form
    # evaluates no fractional row, and a boolean index is no mask.
    wrapped = []
    for n in (64, FFT_MIN_N):
        for u in [*(UnitaryOperator(kind, n) for kind in KINDS), explicit_operator(dense_dct(n))]:
            for j in (-1, n, [-1], [0, n], 0.5, [0.5], [True, False], np.ones(n, bool)):
                try:
                    u.rows(j)
                except IndexError:
                    continue
                wrapped.append((u.kind, n, j))
    assert wrapped == []


def test_operators_build_no_dense_matrix_at_n4096():
    # The dense DFT at n = 4096 is 256 MiB and the DCT-II 128 MiB.
    tracemalloc.start()
    try:
        ops = [UnitaryOperator(kind, 4096) for kind in KINDS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [u.rows([5]).shape for u in ops] == [(1, 4096)] * len(KINDS)


def test_chords_and_regularizer_stay_matrix_free_at_n4096():
    rng = derive_rng(71)
    g = GenerativeNetwork(weights=[rng.standard_normal((200, 20)) / math.sqrt(20),
                                   rng.standard_normal((4096, 200)) / math.sqrt(200)])
    u = dct2_operator(4096)
    tracemalloc.start()
    try:
        chords = ChordSampler(g, u)
        alpha = chord_coherence_mc(g, u, samples=300, seed=4)
        value, grad = regularizer(g.weights[-1], u, lam=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert chords.parts[0].shape == (4096, 200)
    assert 0 < alpha <= 1 and value > 0 and grad.shape == (4096, 200)


def no_compute(*args, **kwargs):
    raise AssertionError("computed before the unitary's size was checked")


NET_16 = GenerativeNetwork([np.ones((8, 2)), np.ones((16, 8))])
DATA_16 = synth_dataset(16, 2, 20, seed=1)
APPLY = "gcs.transforms.UnitaryOperator.apply"
# The dense product that `apply` runs after its size check at n = 32.
MATRIX = "gcs.transforms.UnitaryOperator.matrix"


def _sweep(u):
    model = train_vae(DATA_16, [2, 8, 16], TrainConfig(epochs=1, batch_size=8), None, 0)
    return run_measurement_sweep([("a", model)], DATA_16, SweepConfig(m_list=[8], trials=2), u, 0)


# Each entry point where a unitary meets a problem in R^n, with the QR, FFT,
# draw, loop or dense-product step that it must not reach before its size
# check. `ChordSampler` and `regularizer` are checked by the `apply` they
# call first, so for them, as for `apply`, that step is the dense product.
SIZE_CHECKED = {
    "UnitaryOperator.apply": (lambda u: u.apply(np.zeros(16)), [MATRIX]),
    "sampling.apply": (lambda u: apply(sample_fixed(u, 8, 0), np.zeros(16)),
                       ["gcs.sampling.rows"]),
    "subspace_coherence": (lambda u: subspace_coherence(u, np.eye(16, 3)),
                           ["gcs.coherence.orthonormality_defect", APPLY]),
    "network_coherence_heuristic": (lambda u: network_coherence_heuristic(NET_16, u),
                                    ["gcs.coherence.qr_thin", APPLY]),
    "ChordSampler": (lambda u: ChordSampler(NET_16, u), [MATRIX]),
    "regularizer": (lambda u: regularizer(np.eye(16, 3), u, 0.1), [MATRIX]),
    "train_vae": (lambda u: train_vae(DATA_16, [2, 8, 16], TrainConfig(epochs=1), u, 0),
                  ["gcs.training.derive_rng", "gcs.training._init_params"]),
    "recover_batch": (lambda u: recover_batch([(NET_16, sample_fixed(u, 8, 0), np.zeros(8), None,
                                                0)], RecoveryConfig()),
                      ["gcs.recovery.derive_rng", "gcs.recovery.sampled_rows"]),
    "run_measurement_sweep": (_sweep, ["gcs.harness.derive_rng", "gcs.harness.run_indexed",
                                       "gcs.harness.recover_batch"]),
    "run_subspace_rip": (lambda u: run_subspace_rip(SubspaceRipConfig(16, 3, [8], 0.4, trials=2),
                                                    u, 0),
                         ["gcs.harness.derive_rng", "gcs.harness.run_indexed"]),
}


@pytest.mark.parametrize("site", SIZE_CHECKED)
def test_every_site_checks_the_unitary_size_by_one_rule(monkeypatch, site):
    # A 32 x 32 DCT against a problem in R^16: every entry point raises the
    # one message of check_unitary_n before it computes anything.
    call, steps = SIZE_CHECKED[site]
    u = dct2_operator(32)
    for step in steps:
        monkeypatch.setattr(step, property(no_compute) if step == MATRIX else no_compute)
    with pytest.raises(DimensionMismatch, match="^the unitary is 32 x 32, the problem's n is 16$"):
        call(u)
