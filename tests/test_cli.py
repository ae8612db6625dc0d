import json
import os

import numpy as np
import pytest

from gcs import cli
from gcs.errors import DomainError
from gcs.gnn import GenerativeNetwork, forward, save_network
from gcs.linops import save_matrix
from gcs.recovery import RecoveryConfig
from gcs.sampling import derive_rng
from gcs.training import load_vae


def test_resolve_unitary(tmp_path):
    assert cli.resolve_unitary("dft", 8).matrix.dtype == np.complex128
    assert cli.resolve_unitary("dct", 8).matrix.dtype == np.float64
    path = tmp_path / "u.json"
    save_matrix(np.eye(4), str(path))
    assert np.array_equal(cli.resolve_unitary(f"file:{path}", 4).matrix, np.eye(4))
    with pytest.raises(DomainError, match="unknown unitary 'walsh'"):
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


def no_compute(*args, **kwargs):
    raise AssertionError("the command computed before rejecting its input")


def test_unknown_unitary_exits_2(tmp_path, monkeypatch, capsys):
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    monkeypatch.setattr(cli.recovery, "recover", no_compute)
    rc = cli.main(["recover", "--weights", path, "--unitary", "walsh", "--m", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: unknown unitary 'walsh'")


@pytest.mark.parametrize("extra", [["--data", "bogus"], ["--regularized", "--unitary", "walsh"]])
def test_train_bad_input_exits_2_before_training(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--out", str(tmp_path / "m.json")] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: unknown ")
    assert not (tmp_path / "m.json").exists()


def test_recovery_block_keys():
    assert cli._recovery_from_json({}) == RecoveryConfig()
    assert cli._recovery_from_json({"recovery": {"restarts": 3}}) == RecoveryConfig(restarts=3)
    with pytest.raises(DomainError, match="unknown recovery key 'restart'"):
        cli._recovery_from_json({"recovery": {"restart": 3}})
    with pytest.raises(DomainError, match="'seed'"):
        cli._recovery_from_json({"recovery": {"seed": 1}})


def test_unknown_recovery_key_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    rng = derive_rng(3)
    for name, shape in [("w1", (4, 2)), ("w_high", (8, 4)), ("w_low", (8, 4))]:
        save_matrix(rng.standard_normal(shape), str(tmp_path / f"{name}.json"))
    cfg = {"inner_weights": [str(tmp_path / "w1.json")], "w_high": str(tmp_path / "w_high.json"),
           "w_low": str(tmp_path / "w_low.json"), "m_list": [4], "trials": 1,
           "recovery": {"restart": 3}}
    with open(tmp_path / "phase.json", "w") as f:
        json.dump(cfg, f)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "phase", "--config", str(tmp_path / "phase.json")])
    assert rc == 2
    assert "unknown recovery key 'restart'" in capsys.readouterr().err


def test_recovery_block_values():
    for block, key in [({"restarts": 0}, "restarts"), ({"max_iters": "5"}, "max_iters"),
                       ({"max_iters": 2.5}, "max_iters"), ({"restarts": True}, "restarts"),
                       ({"learning_rate": "0.1"}, "learning_rate"),
                       ({"grad_tol": float("nan")}, "grad_tol")]:
        with pytest.raises(DomainError, match=f"bad recovery value: {key} must be"):
            cli._recovery_from_json({"recovery": block})
    assert cli._recovery_from_json({"recovery": {"learning_rate": 1}}).learning_rate == 1


@pytest.mark.parametrize("block, message", [
    ({"restarts": 0}, "restarts must be positive, got 0"),
    ({"max_iters": "5"}, "max_iters must be an integer, got '5'"),
])
def test_bad_recovery_value_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, block, message):
    rng = derive_rng(3)
    for name, shape in [("w1", (4, 2)), ("w_high", (8, 4)), ("w_low", (8, 4))]:
        save_matrix(rng.standard_normal(shape), str(tmp_path / f"{name}.json"))
    cfg = {"inner_weights": [str(tmp_path / "w1.json")], "w_high": str(tmp_path / "w_high.json"),
           "w_low": str(tmp_path / "w_low.json"), "m_list": [4], "trials": 1,
           "recovery": block}
    with open(tmp_path / "phase.json", "w") as f:
        json.dump(cfg, f)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "phase", "--config", str(tmp_path / "phase.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: bad recovery value: ")
    assert message in err
    assert not (tmp_path / "phase.csv").exists()
