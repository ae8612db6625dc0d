import json
import os

import numpy as np
import pytest

from gcs import cli
from gcs.gnn import GenerativeNetwork, forward, save_network
from gcs.linops import save_matrix
from gcs.sampling import derive_rng
from gcs.training import load_vae


def test_resolve_unitary(tmp_path):
    assert cli.resolve_unitary("dft", 8).matrix.dtype == np.complex128
    assert cli.resolve_unitary("dct", 8).matrix.dtype == np.float64
    path = tmp_path / "u.json"
    save_matrix(np.eye(4), str(path))
    assert np.array_equal(cli.resolve_unitary(f"file:{path}", 4).matrix, np.eye(4))
    with pytest.raises(SystemExit):
        cli.resolve_unitary("walsh", 8)


def test_arg_list_parsers():
    assert cli._ints("8,16, 32") == [8, 16, 32]
    assert cli._floats("0, 0.5,1") == [0.0, 0.5, 1.0]


def save_net(tmp_path, widths, seed):
    rng = derive_rng(seed)
    net = GenerativeNetwork(
        weights=[rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    )
    save_network(net, str(tmp_path / "net.json"))
    return net, str(tmp_path / "net.json")


def test_coherence_command(tmp_path, capsys):
    _, path = save_net(tmp_path, [2, 4, 16], seed=0)
    rc = cli.main(["--seed", "1", "coherence", "--weights", path,
                   "--mc-samples", "500"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha_mc"] <= out["alpha_heuristic"] + 1e-12


def test_train_command(tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = cli.main([
        "--seed", "0", "train", "--data", "synth", "--arch", "2,8,16",
        "--epochs", "1", "--batch", "32", "--synth-count", "100",
        "--synth-k", "2", "--out", str(out),
    ])
    assert rc == 0
    model = load_vae(str(out))
    assert forward(model.decoder, np.zeros(2)).shape == (16,)


def test_recover_command(tmp_path, capsys):
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    rc = cli.main(["--seed", "2", "recover", "--weights", path, "--m", "16",
                   "--restarts", "2", "--max-iters", "500"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rre"] is not None and out["rre"] >= 0.0


def test_train_decoder_path_keeps_json_directories(tmp_path, capsys):
    out = tmp_path / "a.json.d" / "m.json"
    out.parent.mkdir()
    rc = cli.main([
        "train", "--arch", "2,8,16", "--epochs", "1", "--batch", "32",
        "--synth-count", "100", "--synth-k", "2", "--out", str(out),
    ])
    assert rc == 0
    assert (out.parent / "m.decoder.json").exists()


def test_paper_scale_phase_fails_before_any_cell(monkeypatch, capsys):
    # The shipped desk weights have n = 64; the paper-scale grid runs to m = 440.
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    def no_recovery(*args, **kwargs):
        raise AssertionError("a trial was recovered")

    monkeypatch.setattr(cli.harness, "recover_batch", no_recovery)
    monkeypatch.setattr(cli.harness, "network_coherence_heuristic", no_recovery)
    rc = cli.main(["--paper-scale", "phase", "--config", "configs/phase_desk.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "got m=80, n=64" in err


def test_unknown_sampling_model_is_an_error(tmp_path, capsys):
    rng = derive_rng(3)
    for name, shape in [("w1", (4, 2)), ("w_high", (8, 4)), ("w_low", (8, 4))]:
        save_matrix(rng.standard_normal(shape), str(tmp_path / f"{name}.json"))
    cfg = {"inner_weights": [str(tmp_path / "w1.json")], "w_high": str(tmp_path / "w_high.json"),
           "w_low": str(tmp_path / "w_low.json"), "m_list": [4], "trials": 1, "model": "fxied"}
    with open(tmp_path / "phase.json", "w") as f:
        json.dump(cfg, f)
    rc = cli.main(["--out-dir", str(tmp_path), "phase", "--config", str(tmp_path / "phase.json")])
    assert rc == 2
    assert "unknown sampling model 'fxied'" in capsys.readouterr().err
