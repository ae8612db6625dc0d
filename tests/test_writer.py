"""The streaming JSON writer: every weight and model file is the bytes
json.dumps gives for its *_to_json object, whatever the chunk boundaries."""

import glob
import json
import os
import tracemalloc

import numpy as np
import pytest

from gcs import linops
from gcs.gnn import GenerativeNetwork, load_network, network_to_json, save_network
from gcs.linops import (
    JSON_CHUNK,
    load_matrix,
    matrix_to_json,
    read_json,
    save_matrix,
    write_json,
)
from gcs.sampling import derive_rng
from gcs.training import VaeModel, load_vae, save_vae, vae_to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dumped(obj) -> bytes:
    """The oracle: json.dumps of the object with its arrays as lists."""
    return json.dumps(obj, default=np.ndarray.tolist).encode()


def network(widths, seed, biases=False):
    rng = derive_rng(seed)
    ws = [rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    bs = [rng.standard_normal(b) for b in widths[1:]] if biases else None
    return GenerativeNetwork(weights=ws, biases=bs)


def vae(k, h, n, seed):
    """A VaeModel with Gaussian parameters, one encoder layer n -> h."""
    size = (n + 1) * h + 2 * (h + 1) * k + (k + 1) * h + (h + 1) * n
    return VaeModel([k, h, n], derive_rng(seed).standard_normal(size), [3.5, 2.25])


@pytest.mark.parametrize("size", [1, JSON_CHUNK - 1, JSON_CHUNK, JSON_CHUNK + 1, 2 * JSON_CHUNK])
def test_matrix_bytes_at_chunk_boundaries(tmp_path, size):
    m = derive_rng(size).standard_normal((1, size))
    path = tmp_path / "m.json"
    save_matrix(m, str(path))
    assert path.read_bytes() == dumped(matrix_to_json(m))
    np.testing.assert_array_equal(load_matrix(str(path)), m)


def test_complex_matrix_interleaves_real_and_imaginary_parts(tmp_path):
    # 2 * 3 * (JSON_CHUNK // 6 + 1) floats: the interleaved data cross a chunk boundary.
    rng = derive_rng(5)
    shape = (3, JSON_CHUNK // 6 + 1)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    obj = matrix_to_json(m)
    np.testing.assert_array_equal(obj["data"][0::2], m.real.ravel())
    np.testing.assert_array_equal(obj["data"][1::2], m.imag.ravel())
    path = tmp_path / "m.json"
    save_matrix(m, str(path))
    assert path.read_bytes() == dumped(obj)
    np.testing.assert_array_equal(load_matrix(str(path)), m)


def test_write_json_streams_any_json_value(tmp_path):
    obj = {"a": [1, "x", None, True, {}, []], "b": {"c": np.arange(5.0), "d": np.empty(0)},
           "é": -0.0}
    write_json(obj, str(tmp_path / "o.json"))
    assert (tmp_path / "o.json").read_bytes() == dumped(obj)


@pytest.mark.parametrize("biases", [False, True])
def test_network_bytes(tmp_path, monkeypatch, biases):
    g = network([3, 7, 11], seed=2, biases=biases)
    # A chunk of 4 floats puts boundaries inside every weight and bias.
    for chunk in (JSON_CHUNK, 4):
        monkeypatch.setattr(linops, "JSON_CHUNK", chunk)
        save_network(g, str(tmp_path / "g.json"))
        assert (tmp_path / "g.json").read_bytes() == dumped(network_to_json(g))


@pytest.mark.parametrize("with_decoder", [False, True])
def test_vae_bytes(tmp_path, monkeypatch, with_decoder):
    model = vae(3, 9, 16, seed=4)
    decoder_path = str(tmp_path / "m.decoder.json") if with_decoder else None
    for chunk in (JSON_CHUNK, 5):
        monkeypatch.setattr(linops, "JSON_CHUNK", chunk)
        save_vae(model, str(tmp_path / "m.json"), decoder_path)
        assert (tmp_path / "m.json").read_bytes() == dumped(vae_to_json(model))
        if with_decoder:
            save_network(model.decoder, str(tmp_path / "g.json"))
            assert (tmp_path / "m.decoder.json").read_bytes() == (tmp_path / "g.json").read_bytes()
    assert (tmp_path / "m.decoder.json").exists() == with_decoder


def loader(path):
    """The loader and saver for a committed weight or model file, by its keys."""
    obj = read_json(path)
    if "rows" in obj:
        return load_matrix, save_matrix
    if "encoder" in obj:
        return load_vae, save_vae
    return load_network, save_network


@pytest.mark.parametrize("name", sorted(
    os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "out", "desk", "*", "*.json"))))
def test_committed_files_round_trip(tmp_path, name):
    path = os.path.join(ROOT, name)
    load, save = loader(path)
    save(load(path), str(tmp_path / "again.json"))
    with open(path, "rb") as f:
        assert (tmp_path / "again.json").read_bytes() == f.read()


def test_save_vae_peak_memory(tmp_path):
    # A 20 -> 200 -> 784 VAE makes a 6.7 MB model file and a 3.3 MB decoder
    # file. Encoding a whole file at once peaked near three times its size;
    # streamed, at most one chunk's list and text are held.
    model = vae(20, 200, 784, seed=6)
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_vae(model, str(path), str(tmp_path / "m.decoder.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8
