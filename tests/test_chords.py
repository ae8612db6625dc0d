"""Differential tests: chords through the last layer against explicit chords.

The oracles below are the explicit-chord code that ChordSampler replaced: they
form every n-dimensional chord G(z1) - G(z2), normalize it by its Euclidean
norm, and apply U (or the sampled rows of U) to it. They evaluate G with their
own copy of the layer loop, so a fault shared by gnn.hidden and gnn.forward
still shows.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gcs import coherence
from gcs.coherence import ChordSampler, chord_coherence_mc
from gcs.errors import DimensionMismatch
from gcs.gnn import GenerativeNetwork, forward, hidden, relu
from gcs.harness import RipConfig, SubspaceRipConfig, run_rip_check, run_subspace_rip
from gcs.sampling import derive_rng, sample_bernoulli, sample_fixed, spawn_seed
from gcs.transforms import UnitaryOperator, dct2_operator, explicit_operator

N = 32
WIDTHS = {1: [3, N], 2: [3, 8, N], 3: [3, 6, 10, N]}


def oracle_forward(g, z):
    h = z
    for i, w in enumerate(g.weights):
        h = w @ h
        if g.biases is not None:
            h = h + (g.biases[i] if h.ndim == 1 else g.biases[i][:, None])
        if i < g.depth - 1:
            h = relu(h)
    return h


def oracle_chord_coherence_mc(g, u, samples, seed, chunk=8192):
    rng = derive_rng(seed)
    k = g.code_dim
    best = 0.0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        z1 = rng.standard_normal((k, batch))
        z2 = rng.standard_normal((k, batch))
        chords = oracle_forward(g, z1) - oracle_forward(g, z2)
        norms = np.linalg.norm(chords, axis=0)
        ok = norms > 1e-10
        if np.any(ok):
            unit = chords[:, ok] / norms[ok]
            vals = np.max(np.abs(u.matrix @ unit), axis=0)
            best = max(best, float(np.max(vals)))
        done += batch
    return best


def oracle_rip_check(g, u, m_list, delta, chord_samples, trials, seed, model="bernoulli"):
    sampler = {"fixed": sample_fixed, "bernoulli": sample_bernoulli}[model]
    k = g.code_dim
    out = []
    for mi, m in enumerate(m_list):
        for t in range(trials):
            a = sampler(u, m, spawn_seed(seed, mi, t))
            rng = derive_rng(seed, mi, t, 1)
            z1 = rng.standard_normal((k, chord_samples))
            z2 = rng.standard_normal((k, chord_samples))
            chords = oracle_forward(g, z1) - oracle_forward(g, z2)
            norms = np.linalg.norm(chords, axis=0)
            ok = norms > 1e-10
            if not np.any(ok):
                dev = 0.0
            else:
                unit = chords[:, ok] / norms[ok]
                ax = a.scale * (u.matrix[a.indices] @ unit)
                dev = float(np.max(np.abs(np.linalg.norm(ax, axis=0) - 1.0)))
            out.append((dev, dev >= delta))
    return out


def oracle_subspace_rip(u, k, m_list, delta, trials, seed):
    n = u.n
    q = np.linalg.qr(derive_rng(seed, 0).standard_normal((n, k)), mode="reduced")[0]
    b_mat = u.matrix @ q
    out = []
    for mi, m in enumerate(m_list):
        for t in range(trials):
            mask = derive_rng(seed, 1, mi, t).random(n) < m / n
            bj = b_mat[mask]
            gram = (n / m) * np.real(bj.conj().T @ bj)
            dev = float(np.max(np.abs(np.linalg.eigvalsh(gram - np.eye(k)))))
            out.append((dev, dev >= delta))
    return out


def operator(kind):
    if kind == "dct":
        return dct2_operator(N)
    if kind == "dft":
        return UnitaryOperator("dft", N)
    # A random orthogonal matrix scaled by 1 + 1e-10: explicit_operator accepts
    # it (||U^T U - I||_F is about 1e-9), but ||U x|| is not ||x|| to 1e-12,
    # so only exact chord norms agree with the oracle.
    q = np.linalg.qr(derive_rng(7).standard_normal((N, N)))[0]
    return explicit_operator((1.0 + 1e-10) * q)


def network(depth, seed, biases=False):
    rng = derive_rng(seed)
    widths = WIDTHS[depth]
    return GenerativeNetwork(
        weights=[rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])],
        biases=[rng.standard_normal(b) for b in widths[1:]] if biases else None,
    )


@pytest.mark.parametrize("kind", ["dct", "dft", "explicit"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_chord_coherence_mc_matches_explicit_chords(monkeypatch, kind, depth):
    g, u = network(depth, seed=depth), operator(kind)
    # chunk 700 leaves a short last chunk.
    monkeypatch.setattr(coherence, "MC_CHUNK", 700)
    got = chord_coherence_mc(g, u, samples=3000, seed=5)
    want = oracle_chord_coherence_mc(g, u, samples=3000, seed=5, chunk=700)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["dct", "dft", "explicit"])
@pytest.mark.parametrize("depth", [2, 3])
def test_chord_coherence_mc_biased_network(kind, depth):
    # Inner biases shift the hidden layer; the final bias cancels in a chord.
    g, u = network(depth, seed=10 + depth, biases=True), operator(kind)
    got = chord_coherence_mc(g, u, samples=2000, seed=6)
    want = oracle_chord_coherence_mc(g, u, samples=2000, seed=6)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["dct", "dft", "explicit"])
@pytest.mark.parametrize("net", ["depth1", "depth3", "biased"])
@pytest.mark.parametrize("columns", [1, 37, 256])
def test_chord_coherence_mc_column_blocks_split_chunks(monkeypatch, kind, net, columns):
    # Blocks narrower than a chunk split it, and the short last chunk too
    # (3000 = 4 * 700 + 200); a complex U gets blocks half as wide.
    g = {"depth1": lambda: network(1, seed=60), "depth3": lambda: network(3, seed=61),
         "biased": lambda: network(2, seed=62, biases=True)}[net]()
    u = operator(kind)
    monkeypatch.setattr(coherence, "MC_BLOCK_BYTES", columns * 8 * N)
    width = max(1, columns // (2 if kind == "dft" else 1))
    widths = []
    moduli = ChordSampler.moduli

    def counted(self, z1, z2, rows=None):
        widths.append(z1.shape[1])
        return moduli(self, z1, z2, rows)

    monkeypatch.setattr(ChordSampler, "moduli", counted)
    monkeypatch.setattr(coherence, "MC_CHUNK", 700)
    got = chord_coherence_mc(g, u, samples=3000, seed=5)
    want = oracle_chord_coherence_mc(g, u, samples=3000, seed=5, chunk=700)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert sum(widths) == 3000 and max(widths) == min(width, 700)
    assert len(widths) == 4 * math.ceil(700 / width) + math.ceil(200 / width)


def test_chord_coherence_mc_peak_memory_at_n784():
    # One 8192-chord chunk of a 20 -> 200 -> 784 network: whole-chunk products
    # peak near 82 MB; column blocks of MC_BLOCK_BYTES keep it near 7.4 MB.
    rng = derive_rng(70)
    g = GenerativeNetwork(weights=[rng.standard_normal((200, 20)) / math.sqrt(20),
                                   rng.standard_normal((784, 200)) / math.sqrt(200)])
    u = dct2_operator(784)
    tracemalloc.start()
    try:
        alpha = chord_coherence_mc(g, u, samples=8192, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert 0 < alpha <= 1


@pytest.mark.parametrize("kind", ["dct", "dft", "explicit"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("model", ["bernoulli", "fixed"])
def test_rip_check_matches_explicit_chords(kind, depth, model):
    g, u = network(depth, seed=30 + depth), operator(kind)
    args = ([8, 16, 24], 0.3, 40, 6)
    records, _ = run_rip_check(g, RipConfig(*args, model=model), u, 9)
    want = oracle_rip_check(g, u, *args, 9, model=model)
    got_dev = [r["deviation"] for r in records]
    np.testing.assert_allclose(got_dev, [d for d, _ in want], rtol=1e-12, atol=0)
    assert [r["exceed"] for r in records] == [e for _, e in want]


@pytest.mark.parametrize("kind", ["dft", "dct"])
def test_subspace_rip_matches_oracle(kind):
    # The DFT makes B = U Q complex, so only the real part of B_J^* B_J enters.
    u = operator(kind)
    args = (3, [4, 8, 16, 32], 0.4, 12)
    records, summaries, _ = run_subspace_rip(SubspaceRipConfig(u.n, *args), u, 2)
    want = oracle_subspace_rip(u, *args, 2)
    assert [(r["m"], r["trial"], r["seed"]) for r in records] == [
        (m, t, 2) for m in args[1] for t in range(12)
    ]
    np.testing.assert_allclose([r["deviation"] for r in records], [d for d, _ in want],
                               rtol=1e-12, atol=0)
    assert [r["exceed"] for r in records] == [e for _, e in want]
    assert [(s["m"], s["trials"]) for s in summaries] == [(m, 12) for m in args[1]]
    assert [s["exceed_freq"] for s in summaries] == [
        float(np.mean([e for _, e in want[i * 12:(i + 1) * 12]])) for i in range(4)
    ]


def test_chord_sampler_coordinates_and_norms():
    g, u = network(2, seed=40, biases=True), operator("dft")
    rng = derive_rng(41)
    z1, z2 = rng.standard_normal((3, 50)), rng.standard_normal((3, 50))
    chords = ChordSampler(g, u)
    c = hidden(g, z1) - hidden(g, z2)
    explicit = oracle_forward(g, z1) - oracle_forward(g, z2)
    np.testing.assert_allclose(g.weights[-1] @ c, explicit, rtol=0, atol=1e-12)
    unit = explicit / np.linalg.norm(explicit, axis=0)
    # A complex U is held as two real parts, so real chords stay real.
    re, im = chords.parts
    assert re.dtype == im.dtype == np.float64
    np.testing.assert_allclose(re @ c + 1j * (im @ c), u.matrix @ explicit, rtol=0, atol=1e-12)
    rows = np.array([1, 4, 9])
    np.testing.assert_allclose(chords.moduli(z1, z2), np.abs(u.matrix @ unit), rtol=0, atol=1e-12)
    np.testing.assert_allclose(chords.moduli(z1, z2, rows), np.abs(u.matrix[rows] @ unit),
                               rtol=0, atol=1e-12)


def test_chord_sampler_real_unitary_is_one_real_part():
    g, u = network(2, seed=42), operator("dct")
    chords = ChordSampler(g, u)
    assert len(chords.parts) == 1
    z1, z2 = derive_rng(43).standard_normal((2, 3, 30))
    c = hidden(g, z1) - hidden(g, z2)
    w = g.weights[-1]
    unit = c / np.sqrt(np.sum(c * ((w.T @ w) @ c), axis=0))
    rows = np.array([0, 5, 7])
    proj = u.matrix @ w
    assert np.array_equal(chords.moduli(z1, z2), np.abs(proj @ unit))
    assert np.array_equal(chords.moduli(z1, z2, rows), np.abs(proj[rows] @ unit))


def test_chord_sampler_drops_chords_of_norm_at_most_1e_10():
    # The columns of q are orthonormal, so a one-layer network maps z1 - z2
    # to a chord of the same norm.
    q = np.linalg.qr(derive_rng(44).standard_normal((N, 3)))[0]
    chords = ChordSampler(GenerativeNetwork(weights=[q]), operator("dft"))
    z1 = np.zeros((3, 5))
    z2 = np.zeros((3, 5))
    z2[0] = [0.0, 5e-11, 1e-10 / 1.01, 1e-9, 1.0]
    mod = chords.moduli(z1, z2)
    assert mod.shape == (N, 2)
    np.testing.assert_allclose(np.linalg.norm(mod, axis=0), 1.0, rtol=1e-12)
    assert chords.moduli(z1, z2, np.array([2, 3, 5])).shape == (3, 2)
    assert chords.moduli(z1[:, :3], z2[:, :3]).shape == (N, 0)


def test_chord_sampler_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ChordSampler(network(2, seed=0), dct2_operator(N + 1))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_forward_is_final_layer_over_hidden(depth):
    # forward runs the same operations in the same order as the layer loop.
    g = network(depth, seed=50 + depth, biases=True)
    z = derive_rng(51).standard_normal((3, 20))
    assert np.array_equal(forward(g, z), oracle_forward(g, z))
    for j in range(3):
        assert np.array_equal(forward(g, z[:, j]), oracle_forward(g, z[:, j]))
    w, b = g.weights[-1], g.biases[-1][:, None]
    assert np.array_equal(forward(g, z), w @ hidden(g, z) + b)
