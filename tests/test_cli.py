import ast
import csv
import dataclasses
import filecmp
import glob
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import typing
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gcs import cli
from gcs import transforms
from gcs.errors import DimensionMismatch, DomainError
from gcs.gnn import GenerativeNetwork, forward, save_network
from gcs.harness import RipConfig, SubspaceRipConfig
from gcs.linops import save_matrix, write_json
from gcs.recovery import RecoveryConfig
from gcs.sampling import derive_rng
from gcs.training import (
    TrainConfig,
    VaeModel,
    load_vae,
    save_vae,
    synth_dataset,
    train_vae,
    vae_to_json,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_resolve_unitary(tmp_path):
    assert cli.resolve_unitary("dft", 8).matrix.dtype == np.complex128
    assert cli.resolve_unitary("dct", 8).matrix.dtype == np.float64
    path = tmp_path / "u.json"
    save_matrix(np.eye(4), str(path))
    assert np.array_equal(cli.resolve_unitary(f"file:{path}", 4).matrix, np.eye(4))
    with pytest.raises(DimensionMismatch, match="^the unitary is 4 x 4, the problem's n is 8$"):
        cli.resolve_unitary(f"file:{path}", 8)
    with pytest.raises(DomainError, match="unknown unitary 'walsh'"):
        cli.resolve_unitary("walsh", 8)


def test_unitary_names_are_the_table_names_and_file_paths():
    # check_unitary_spec accepts exactly the names in transforms.KINDS and
    # file:<path>, and its error lists them, from the table.
    for spec in [*transforms.KINDS, "file:u.json", "file:file:"]:
        assert cli.check_unitary_spec(spec) == spec
    listed = ", ".join(transforms.KINDS)
    for spec in ["walsh", "file:", "DFT", "dct ", "explicit", "", [], 3, None, ["dct"]]:
        with pytest.raises(DomainError) as info:
            cli.check_unitary_spec(spec)
        assert str(info.value) == f"unknown unitary {spec!r} (expected {listed}, or file:<path>)"


@pytest.mark.parametrize("matrix, message", [
    (np.eye(4)[:, :3], "kind 'explicit' of n = 4 takes no (4, 3) matrix"),
    (2 * np.eye(4), "||U*U - I||_F exceeds 1e-8"),
], ids=["non-square", "non-unitary"])
def test_file_unitary_that_is_no_unitary_exits_2_naming_the_file(tmp_path, monkeypatch, capsys,
                                                                 matrix, message):
    monkeypatch.chdir(tmp_path)
    save_matrix(matrix, "u.json")
    _, net = save_net(tmp_path, [2, 8, 4], seed=1)
    monkeypatch.setattr(cli.coh, "coherence_report", no_compute)
    rc = cli.main(["coherence", "--weights", net, "--unitary", "file:u.json"])
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: u.json: bad contents: {message}\n"


def test_coherence_of_a_final_layer_whose_norm_overflows_exits_2(tmp_path, capsys):
    # Finite weights whose Frobenius norm overflows: the thin QR names the
    # overflow in one line, where numpy would warn and call W rank deficient.
    rng = derive_rng(0)
    net = GenerativeNetwork(weights=[rng.standard_normal((8, 2)),
                                     1e160 * rng.standard_normal((16, 8))])
    save_network(net, str(tmp_path / "net.json"))
    assert cli.main(["coherence", "--weights", str(tmp_path / "net.json")]) == 2
    assert capsys.readouterr().err == "gcs: error: the Frobenius norm of W overflows\n"


def test_arg_list_parsers():
    assert cli._ints("8,16, 32") == [8, 16, 32]
    with pytest.raises(DomainError, match="comma-separated integers"):
        cli._ints("2,x,16")


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


def test_coherence_and_recover_print_their_keys_in_order_as_indented_json(tmp_path, capsys):
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    for argv, keys in [
        (["coherence", "--weights", path, "--mc-samples", "500"],
         ["alpha_heuristic", "alpha_mc", "mc_samples", "lower_bound", "typical_bound", "seed",
          "constant_c"]),
        (["recover", "--weights", path, "--m", "12", "--max-iters", "50"],
         ["z_hat", "x_hat", "rre", "iterations", "termination", "residual", "failed_restarts",
          "success"]),
    ]:
        assert cli.main(["--seed", "2", *argv]) == 0
        out = capsys.readouterr().out
        assert list(json.loads(out)) == keys
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_recover_noise_flag(tmp_path, capsys):
    # Noise of standard deviation sigma joins the measurement: a positive
    # sigma leaves a residual and the same result per seed, and sigma 0 is
    # the noiseless run.
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)

    def run(*noise):
        assert cli.main(["--seed", "2", "recover", "--weights", path, "--m", "12",
                         "--max-iters", "300", *noise]) == 0
        return json.loads(capsys.readouterr().out)

    plain, noisy = run(), run("--noise", "0.1")
    assert run("--noise", "0") == plain
    assert run("--noise", "0.1") == noisy != plain
    values = [*noisy["z_hat"], *noisy["x_hat"], noisy["rre"], noisy["residual"]]
    assert all(np.isfinite(values)) and noisy["residual"] > 0


def test_recover_noise_perturbs_every_real_measurement_of_a_complex_unitary(tmp_path,
                                                                            monkeypatch):
    # Under the DFT each sampled row is two real measurements, Re and Im, and
    # sigma applies to each: the imaginary-part measurements are perturbed too.
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    seen = []
    monkeypatch.setattr(cli.recovery, "recover", lambda g, a, b, *args, **kwargs:
                        seen.append((a, b)) or {"rre": None})
    for noise in ("0", "0.01"):
        assert cli.main(["--seed", "2", "recover", "--weights", path, "--unitary", "dft",
                         "--m", "6", "--noise", noise]) == 0
    (a, plain), (_, noisy) = seen
    assert plain.dtype == noisy.dtype == np.float64 and plain.shape == (2 * 6,) == (a.num_rows,)
    rng = derive_rng(2, 1)
    rng.standard_normal(2)  # the latent code of the signal
    np.testing.assert_allclose(noisy - plain, 0.01 * rng.standard_normal(12), rtol=1e-9,
                               atol=1e-15)
    assert np.all(noisy[6:] != plain[6:])


def test_dft_phase_and_sweep_rerun_byte_identically(tmp_path):
    # Criterion 13's rerun check under a complex unitary: every file a
    # two-trial DFT phase portrait or sweep writes is the same on a rerun.
    data = synth_dataset(16, 2, 100, seed=1)
    save_vae(train_vae(data, [2, 8, 16], TrainConfig(epochs=1, batch_size=32), None, 0),
             str(tmp_path / "model.json"))
    edits = {"unitary": "dft", "m_list": [4, 8], "trials": 2, "recovery": {"max_iters": 200}}
    for name, config in [("phase", phase_config(tmp_path, **edits)),
                         ("sweep", sweep_config(tmp_path, **edits))]:
        runs = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}"
            assert cli.main(["--seed", "7", "--out-dir", str(out), name, "--config", config]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1] and f"{name}.csv" in runs[0]


def test_train_decoder_path_keeps_json_directories(tmp_path, capsys):
    out = tmp_path / "a.json.d" / "m.json"
    out.parent.mkdir()
    rc = cli.main([
        "train", "--arch", "2,8,16", "--epochs", "1", "--batch", "32",
        "--synth-count", "100", "--synth-k", "2", "--out", str(out),
    ])
    assert rc == 0
    assert (out.parent / "m.decoder.json").exists()


def test_train_makes_the_out_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "m.json"
    rc = cli.main([
        "train", "--arch", "2,8,16", "--epochs", "1", "--batch", "32",
        "--synth-count", "100", "--synth-k", "2", "--out", str(out),
    ])
    assert rc == 0
    assert load_vae(str(out)).decoder.ambient_dim == 16
    assert (out.parent / "m.decoder.json").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--arch", "2,8,16", "--out", "{bad}/m.json"],
    ["--out-dir", "{bad}", "phase", "--config", "{tmp}/phase.json"],
    ["--out-dir", "{bad}", "sweep", "--config", "configs/sweep_desk.json"],
    ["--out-dir", "{bad}", "rip", "--weights", "{tmp}/net.json", "--m-list", "8"],
    ["--out-dir", "{bad}", "subspace-rip", "--n", "16", "--k", "2", "--m-list", "8"],
], ids=lambda argv: argv[0] if argv[0] == "train" else argv[2])
@pytest.mark.parametrize("under", [True, False], ids=["under-a-file", "a-file"])
def test_unwritable_out_location_exits_2_before_any_compute(tmp_path, monkeypatch, capsys,
                                                            argv, under):
    # The output directory is a regular file, or would lie under one, so
    # os.makedirs cannot make it: the run stops before it reads its inputs.
    monkeypatch.chdir(ROOT)
    (tmp_path / "file").write_text("x")
    bad = str(tmp_path / "file" / "out") if under else str(tmp_path / "file")
    phase_config(tmp_path)
    save_net(tmp_path, [2, 8, 16], seed=1)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    for driver in ("run_phase_portrait", "run_measurement_sweep", "run_rip_check",
                   "run_subspace_rip"):
        monkeypatch.setattr(cli.harness, driver, no_compute)
    rc = cli.main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: cannot write to ")
    assert "is not a writable directory" in err


@pytest.mark.parametrize("taken", ["m.json", "m.decoder.json"])
def test_train_out_file_that_is_a_directory_exits_2_before_any_compute(tmp_path, monkeypatch,
                                                                       capsys, taken):
    (tmp_path / taken).mkdir()
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"gcs: error: cannot write to {tmp_path / taken}: it is a directory\n"


@pytest.mark.parametrize("data", ["idx:{images}"])
def test_train_reads_an_idx_image_file_and_no_label_file(tmp_path, data):
    # The data directory holds the image file alone.
    images = tmp_path / "data" / "train-images-idx3-ubyte"
    images.parent.mkdir()
    write_idx(images, 64, 8, 8)
    out = tmp_path / "m.json"
    rc = cli.main(["train", "--data", data.format(images=images), "--arch", "4,16,64",
                   "--epochs", "1", "--out", str(out)])
    assert rc == 0
    assert load_vae(str(out)).decoder.ambient_dim == 64
    assert (tmp_path / "m.decoder.json").exists()


# An edit to NULL writes the key with the value null.
NULL = object()
# A 400-digit integer: valid JSON, and a Python int, that no float can hold.
BIG = 10**399


def write_config(path, base: dict, edits: dict) -> str:
    """Write base updated by edits as JSON; an edit to None drops the key."""
    cfg = {k: None if v is NULL else v for k, v in {**base, **edits}.items() if v is not None}
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


def phase_config(tmp_path, **edits) -> str:
    """A tiny phase config, with its weight files, under tmp_path."""
    rng = derive_rng(3)
    for name, shape in [("w1", (4, 2)), ("w_high", (8, 4)), ("w_low", (8, 4))]:
        save_matrix(rng.standard_normal(shape), str(tmp_path / f"{name}.json"))
    base = {"inner_weights": [str(tmp_path / "w1.json")], "w_high": str(tmp_path / "w_high.json"),
            "w_low": str(tmp_path / "w_low.json"), "m_list": [4], "trials": 1}
    return write_config(tmp_path / "phase.json", base, edits)


def test_phase_heatmap_rows_follow_the_config_betas(tmp_path, monkeypatch):
    # The desk phase config with its betas unsorted: each heatmap row is
    # labelled with the coherence of its own beta, in the config's order.
    monkeypatch.chdir(ROOT)
    with open(os.path.join("configs", "phase_desk.json")) as f:
        base = json.load(f)
    config = write_config(tmp_path / "phase.json", base,
                          {"betas": [1.0, 0.0], "m_list": [64], "trials": 1})
    assert cli.main(["--out-dir", str(tmp_path), "phase", "--config", config]) == 0
    with open(tmp_path / "phase.csv") as f:
        cohs = {float(r["beta"]): float(r["coherence_heuristic"]) for r in csv.DictReader(f)}
    svg = (tmp_path / "phase.svg").read_text()
    labels = re.findall(r'<text x="5" y="\d+" font-size="11">([^<]*)</text>', svg)
    assert labels == ["a=1.000", "a=0.636"]
    assert labels == [f"a={cohs[beta]:.3f}" for beta in (1.0, 0.0)]


def sweep_config(tmp_path, **edits) -> str:
    """A tiny sweep config under tmp_path; its model file is not written."""
    base = {"models": {"a": str(tmp_path / "model.json")},
            "test_data": {"kind": "synth", "k_true": 2, "count": 4, "seed": 0},
            "m_list": [4], "trials": 1}
    return write_config(tmp_path / "sweep.json", base, edits)


def no_compute(*args, **kwargs):
    raise AssertionError("the command computed before rejecting its input")


@pytest.mark.parametrize("command, edits, message", [
    ("phase", {"betas": []}, "betas must be a nonempty list of numbers, got []"),
    ("phase", {"betas": [0.5, 0.5]}, "betas must not repeat, got [0.5, 0.5]"),
    ("phase", {"trials": 0}, "trials must be >= 1, got 0"),
    ("phase", {"model": "fxied"}, "unknown sampling model 'fxied' (expected fixed or bernoulli)"),
    ("sweep", {"model": "fxied"}, "unknown sampling model 'fxied' (expected fixed or bernoulli)"),
], ids=["phase-empty-betas", "phase-repeated-beta", "phase-zero-trials", "phase-model",
        "sweep-model"])
def test_bad_config_value_exits_2_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                          command, edits, message):
    # Every value of an experiment config is checked when the config is
    # built, before the command reads a weight or model file it names.
    config = (phase_config if command == "phase" else sweep_config)(tmp_path, **edits)
    monkeypatch.setattr(cli.gnn, "load_weight", no_compute)
    monkeypatch.setattr(cli.training, "load_vae", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), command, "--config", config])
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: {message}\n"


# Each of these commands names a weight or unitary file that does not exist.
MISSING_RIP = ["rip", "--weights", "missing.json", "--m-list", "8"]
MISSING_SUBSPACE = ["subspace-rip", "--unitary", "file:missing.json", "--n", "16", "--k", "2",
                    "--m-list", "8"]
MISSING_TRAIN = ["train", "--arch", "2,8,16", "--regularized", "--unitary", "file:missing.json",
                 "--out", "m.json"]
WALSH = "unknown unitary 'walsh' (expected dft, dct, or file:<path>)"


@pytest.mark.parametrize("argv, edits, message", [
    (["phase"], {"m_list": []}, "the m grid is empty"),
    (["phase"], {"m_list": [8, 8]}, "m = 8 appears twice in the m grid"),
    (["phase"], {"m_list": [8, "x"]}, "m must be an integer, got 'x'"),
    (["sweep"], {"m_list": [10, 10]}, "m = 10 appears twice in the m grid"),
    (MISSING_RIP + ["--delta", "2"], {}, "delta must be in (0, 1), got 2.0"),
    (MISSING_RIP + ["--trials", "0"], {}, "trials must be >= 1, got 0"),
    (MISSING_RIP + ["--chord-samples", "0"], {}, "chord_samples must be >= 1, got 0"),
    (MISSING_RIP + ["--model", "walsh"], {},
     "unknown sampling model 'walsh' (expected fixed or bernoulli)"),
    (MISSING_RIP + ["--m-list", "8,8"], {}, "m = 8 appears twice in the m grid"),
    (MISSING_SUBSPACE + ["--trials", "0"], {}, "trials must be >= 1, got 0"),
    (MISSING_SUBSPACE + ["--m-list", "8,8"], {}, "m = 8 appears twice in the m grid"),
    (["coherence", "--weights", "missing.json", "--mc-samples", "0"], {},
     "samples must be >= 1, got 0"),
    (["recover", "--weights", "missing.json", "--m", "0"], {}, "--m must be >= 1, got 0"),
    (["recover", "--weights", "missing.json", "--unitary", "walsh", "--m", "4"], {}, WALSH),
    (["coherence", "--weights", "missing.json", "--unitary", "walsh"], {}, WALSH),
    (["rip", "--weights", "missing.json", "--unitary", "walsh", "--m-list", "8"], {}, WALSH),
    (["rip", "--weights", "missing.json", "--unitary", "file:", "--m-list", "8"], {},
     "unknown unitary 'file:' (expected dft, dct, or file:<path>)"),
    (["subspace-rip", "--unitary", "file:missing.json", "--n", "16", "--k", "20",
      "--m-list", "8"], {}, "need 1 <= k <= n, got k=20"),
    (["subspace-rip", "--unitary", "file:missing.json", "--n", "16", "--k", "2",
      "--m-list", "8,40"], {}, "need 2 <= m <= n for bernoulli sampling, got m=40, n=16"),
    (["subspace-rip", "--unitary", "file:missing.json", "--n", "0", "--k", "2",
      "--m-list", "8"], {}, "n must be >= 1, got 0"),
    (MISSING_TRAIN + ["--synth-count", "0"], {}, "count must be >= 1, got 0"),
    (MISSING_TRAIN + ["--synth-k", "40"], {}, "need 1 <= k_true <= n, got k_true=40, n=16"),
], ids=["phase-empty-m_list", "phase-repeated-m", "phase-string-m", "sweep-repeated-m",
        "rip-delta2", "rip-trials0", "rip-chords0", "rip-model", "rip-repeated-m",
        "subspace-trials0", "subspace-repeated-m", "coherence-mc-samples0", "recover-m0",
        "recover-unitary", "coherence-unitary", "rip-unitary", "rip-empty-file-unitary",
        "subspace-k-above-n",
        "subspace-m-above-n", "subspace-n0", "train-synth-count0", "train-synth-k-above-n"])
def test_bad_grid_or_rip_value_exits_2_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                               argv, edits, message):
    # Every config, the RIP configs built from their flags included, checks
    # its values and its m grid's shape when it is built, and every
    # --unitary name is checked as it is parsed. Only m <= n waits for the
    # file that gives n, the weights or the sweep's first model.
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("phase", "sweep"):
        argv = [argv[0], "--config", (phase_config if argv[0] == "phase" else sweep_config)(
            tmp_path, **edits)]
    for module, name in [(cli.gnn, "load_weight"), (cli.gnn, "load_network"),
                         (cli.training, "load_vae"), (cli.training, "load_idx"),
                         (cli, "load_matrix")]:
        monkeypatch.setattr(module, name, no_compute)
    rc = cli.main(["--out-dir", "out"] + argv)
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: {message}\n"


def test_unknown_unitary_exits_2(tmp_path, monkeypatch, capsys):
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    monkeypatch.setattr(cli.recovery, "recover", no_compute)
    rc = cli.main(["recover", "--weights", path, "--unitary", "walsh", "--m", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: unknown unitary 'walsh'")


@pytest.mark.parametrize("extra", [["--data", "bogus"], ["--regularized", "--unitary", "walsh"],
                                   ["--data", "mnist"]])
def test_train_bad_input_exits_2_before_training(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--out", str(tmp_path / "m.json")] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: unknown ")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("arch, message", [
    ("8", "a network needs at least one layer"),
    ("1,4,8", "code dimension must be >= 2"),
])
def test_train_bad_arch_exits_2_before_data(tmp_path, monkeypatch, capsys, arch, message):
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", arch, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: widths [")
    assert message in err
    assert not (tmp_path / "m.json").exists()


def test_sweep_without_models_exits_2_before_loading(tmp_path, monkeypatch, capsys):
    config = sweep_config(tmp_path, models={})
    monkeypatch.setattr(cli.training, "load_vae", no_compute)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "sweep", "--config", config])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: ")
    assert '"models"' in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("m_list, message", [
    ([10, 10], "m = 10 appears twice"),
    ([16, 80], "got m=80, n=64"),
    (16, "m_list must be a list of integers, got 16"),
    (True, "m_list must be a list of integers, got True"),
    (NULL, "m_list must be a list of integers, got None"),
])
def test_sweep_bad_grid_exits_2_after_one_model_load(tmp_path, monkeypatch, capsys, m_list,
                                                     message):
    config = sweep_config(tmp_path, m_list=m_list,
                          models={"a": str(tmp_path / "a.json"), "b": str(tmp_path / "b.json")})
    loads = []

    def load_vae(path):
        loads.append(path)
        return SimpleNamespace(decoder=SimpleNamespace(ambient_dim=64))

    monkeypatch.setattr(cli.training, "load_vae", load_vae)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "sweep", "--config", config])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    # The grid's shape is checked when the config is built; only m <= n
    # waits for the n that the first model gives.
    assert loads == ([str(tmp_path / "a.json")] if m_list == [16, 80] else [])


@pytest.mark.parametrize("unitary, loads_before_exit, message", [
    ("walsh", 0, "unknown unitary 'walsh'"),
    ("file:u4.json", 1, "the unitary is 4 x 4, the problem's n is 64"),
])
def test_sweep_bad_unitary_exits_2_before_the_other_models_load(tmp_path, monkeypatch, capsys,
                                                                unitary, loads_before_exit,
                                                                message):
    # An unknown spec exits before any model loads; a file: unitary is
    # checked against the n the first model gives.
    monkeypatch.chdir(tmp_path)
    save_matrix(np.eye(4), "u4.json")
    config = sweep_config(tmp_path, unitary=unitary, models={"a": "a.json", "b": "b.json"})
    loads = []

    def load_vae(path):
        loads.append(path)
        return SimpleNamespace(decoder=SimpleNamespace(ambient_dim=64))

    monkeypatch.setattr(cli.training, "load_vae", load_vae)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", "out", "sweep", "--config", config])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: ") and message in err
    assert len(loads) == loads_before_exit
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, n", [
    (["train", "--regularized", "--arch", "8,32,64", "--out", "m.json"], 64),
    (["rip", "--weights", "net.json", "--m-list", "8"], 16),
    (["coherence", "--weights", "net.json"], 16),
    (["recover", "--weights", "net.json", "--m", "8"], 16),
], ids=["train", "rip", "coherence", "recover"])
def test_file_unitary_of_wrong_size_exits_2_before_any_compute(tmp_path, monkeypatch, capsys,
                                                               argv, n):
    monkeypatch.chdir(tmp_path)
    save_matrix(np.eye(4), "u4.json")
    save_net(tmp_path, [2, 8, 16], seed=1)
    synth_calls = []

    def synth_dataset(*args, **kwargs):
        synth_calls.append(args)
        return synth_dataset.wrapped(*args, **kwargs)

    synth_dataset.wrapped = cli.training.synth_dataset
    monkeypatch.setattr(cli.training, "synth_dataset", synth_dataset)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    monkeypatch.setattr(cli.harness, "run_rip_check", no_compute)
    monkeypatch.setattr(cli.coh, "coherence_report", no_compute)
    monkeypatch.setattr(cli.recovery, "recover", no_compute)
    rc = cli.main(["--out-dir", "out"] + argv + ["--unitary", "file:u4.json"])
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: the unitary is 4 x 4, the problem's n is {n}\n"
    assert synth_calls == []
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()


def test_recovery_block_keys():
    assert cli._recovery_from_json({}) == RecoveryConfig()
    assert cli._recovery_from_json({"recovery": {"restarts": 3}}) == RecoveryConfig(restarts=3)
    with pytest.raises(DomainError, match="unknown recovery key 'restart'"):
        cli._recovery_from_json({"recovery": {"restart": 3}})
    with pytest.raises(DomainError, match="'seed'"):
        cli._recovery_from_json({"recovery": {"seed": 1}})


def test_unknown_recovery_key_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    config = phase_config(tmp_path, recovery={"restart": 3})
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "phase", "--config", config])
    assert rc == 2
    assert "unknown recovery key 'restart'" in capsys.readouterr().err


def test_recovery_block_values():
    for block, key in [({"restarts": 0}, "restarts"), ({"max_iters": "5"}, "max_iters"),
                       ({"max_iters": 2.5}, "max_iters"), ({"restarts": True}, "restarts"),
                       ({"learning_rate": "0.1"}, "learning_rate"),
                       ({"learning_rate": float("inf")}, "learning_rate"),
                       ({"learning_rate": 10**400}, "learning_rate"),
                       ({"grad_tol": float("nan")}, "grad_tol")]:
        with pytest.raises(DomainError, match=f"^recovery {key} must be"):
            cli._recovery_from_json({"recovery": block})
    assert cli._recovery_from_json({"recovery": {"learning_rate": 1}}).learning_rate == 1


@pytest.mark.parametrize("block, message", [
    ({"restarts": 0}, "restarts must be positive, got 0"),
    ({"max_iters": "5"}, "max_iters must be an integer, got '5'"),
])
def test_bad_recovery_value_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, block, message):
    config = phase_config(tmp_path, recovery=block)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    rc = cli.main(["--out-dir", str(tmp_path), "phase", "--config", config])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: recovery ")
    assert message in err
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--arch", "2,x,16", "--out", "m.json"],
    ["rip", "--weights", "net.json", "--m-list", "16,x"],
])
def test_non_integer_list_entry_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.harness, "run_rip_check", no_compute)
    save_net(tmp_path, [2, 8, 16], seed=1)
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: expected comma-separated integers")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag, message", [
    (["--batch", "0"], "batch size must be >= 1, got 0"),
    (["--lr", "0"], "learning rate must be positive, got 0.0"),
    (["--regularized", "--reg-weight", "-1"], "reg_weight must be >= 0, got -1.0"),
    (["--regularized", "--lambda", "-1"], "lam must be >= 0, got -1.0"),
    (["--lr", "inf"], "learning rate must be finite, got inf"),
    (["--unitary", "bogus"], "unknown unitary 'bogus' (expected dft, dct, or file:<path>)"),
])
def test_train_bad_config_exits_2_before_data(tmp_path, monkeypatch, capsys, flag, message):
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--out", str(tmp_path / "m.json")] + flag)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"gcs: error: {message}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag, message", [
    (["--synth-k", "0"], "need 1 <= k_true <= n, got k_true=0, n=16"),
    (["--synth-count", "0"], "count must be >= 1, got 0"),
    (["--synth-count", str(2**62)], f"count={2**62} samples of n=16 float64 entries exceed the "
                                    "largest array numpy can hold"),
])
def test_train_bad_synth_data_exits_2_before_drawing(tmp_path, monkeypatch, capsys, flag,
                                                     message):
    monkeypatch.setattr(cli.training, "derive_rng", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--out", str(tmp_path / "m.json")] + flag)
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: {message}\n"
    assert not (tmp_path / "m.json").exists()


# The hyperparameter flags of gcs train, by the TrainConfig field each sets,
# and the value each is given below.
TRAIN_FLAGS = {"learning_rate": ("--lr", 0.002), "batch_size": ("--batch", 7),
               "epochs": ("--epochs", 3), "reg_weight": ("--reg-weight", 5.0),
               "lam": ("--lambda", 0.5)}


@pytest.mark.parametrize("regularized", [False, True])
def test_train_config_fields_are_the_hyperparameter_flags_of_gcs_train(tmp_path, monkeypatch,
                                                                       regularized):
    # TrainConfig holds what these flags set and nothing else; the unitary
    # and the seed reach train_vae as its own arguments.
    assert [f.name for f in dataclasses.fields(TrainConfig)] == list(TRAIN_FLAGS)
    calls = []

    def record(data, widths, config, u, seed):
        calls.append((config, u, seed))
        raise DomainError("recorded")

    monkeypatch.setattr(cli.training, "train_vae", record)
    argv = ["--seed", "3", "train", "--arch", "2,8,16", "--synth-count", "4",
            "--out", str(tmp_path / "m.json")] + ["--regularized"] * regularized
    for flag, value in TRAIN_FLAGS.values():
        argv += [flag, str(value)]
    assert cli.main(argv) == 2
    [(config, u, seed)] = calls
    assert dataclasses.asdict(config) == {name: value for name, (_, value) in TRAIN_FLAGS.items()}
    assert seed == 3
    assert (u is not None and u.n == 16) if regularized else u is None


# The hyperparameter flags of gcs recover, by the RecoveryConfig field each
# sets, and the value each is given below.
RECOVER_FLAGS = {"learning_rate": ("--lr", 0.05), "max_iters": ("--max-iters", 7),
                 "grad_tol": ("--grad-tol", 1e-5), "restarts": ("--restarts", 2)}


def test_recovery_config_fields_are_the_hyperparameter_flags_of_gcs_recover(tmp_path,
                                                                            monkeypatch):
    assert [f.name for f in dataclasses.fields(RecoveryConfig)] == list(RECOVER_FLAGS)
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    calls = []

    def record(g, a, b, config, x0, seed):
        calls.append(config)
        raise DomainError("recorded")

    monkeypatch.setattr(cli.recovery, "recover", record)
    argv = ["recover", "--weights", path, "--m", "8"]
    for flag, value in RECOVER_FLAGS.values():
        argv += [flag, str(value)]
    assert cli.main(argv) == 2
    [config] = calls
    assert dataclasses.asdict(config) == {name: value for name, (_, value) in RECOVER_FLAGS.items()}


def test_recover_without_hyperparameter_flags_uses_the_recovery_config_defaults(tmp_path,
                                                                               monkeypatch):
    _, path = save_net(tmp_path, [2, 8, 16], seed=1)
    calls = []

    def record(g, a, b, config, x0, seed):
        calls.append(config)
        raise DomainError("recorded")

    monkeypatch.setattr(cli.recovery, "recover", record)
    assert cli.main(["recover", "--weights", path, "--m", "8"]) == 2
    assert calls == [RecoveryConfig()]


@pytest.mark.parametrize("command, cls", [("train", TrainConfig), ("recover", RecoveryConfig),
                                          ("rip", RipConfig), ("subspace-rip", SubspaceRipConfig)])
def test_config_flags_take_type_and_default_from_their_fields(command, cls):
    # No flag restates a config value: the dataclass field is the one place
    # that declares its type and default. A list field takes comma-separated
    # integers, and a field without a default makes a required flag.
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    actions = {a.dest: a for a in sub.choices[command]._actions}
    types = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = cli._ints if types[f.name] is list else types[f.name]
        assert (actions[f.name].type, actions[f.name].default) == (kind, f.default)
        assert actions[f.name].required == (f.default is dataclasses.MISSING)


# The flags of gcs rip and gcs subspace-rip in their order, each with its
# dest and its default (REQUIRED for a required flag), and the usage line.
REQUIRED = object()
RIP_FLAGS = [("--weights", "weights", REQUIRED), ("--unitary", "unitary", "dft"),
             ("--m-list", "m_list", REQUIRED), ("--delta", "delta", 0.5),
             ("--chord-samples", "chord_samples", 200), ("--trials", "trials", 100),
             ("--model", "model", "bernoulli")]
RIP_USAGE = ("usage: gcs rip [-h] --weights WEIGHTS [--unitary UNITARY] --m-list M_LIST "
             "[--delta DELTA] [--chord-samples CHORD_SAMPLES] [--trials TRIALS] [--model MODEL]")
SUBSPACE_FLAGS = [("--unitary", "unitary", "dft"), ("--n", "n", REQUIRED), ("--k", "k", REQUIRED),
                  ("--m-list", "m_list", REQUIRED), ("--delta", "delta", 0.4),
                  ("--trials", "trials", 300)]
SUBSPACE_USAGE = ("usage: gcs subspace-rip [-h] [--unitary UNITARY] --n N --k K --m-list M_LIST "
                  "[--delta DELTA] [--trials TRIALS]")


@pytest.mark.parametrize("command, flags, usage", [
    ("rip", RIP_FLAGS, RIP_USAGE), ("subspace-rip", SUBSPACE_FLAGS, SUBSPACE_USAGE),
], ids=["rip", "subspace-rip"])
def test_rip_flags_keep_their_order_dests_and_defaults(command, flags, usage):
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    parser = sub.choices[command]
    assert [(a.option_strings[0], a.dest, REQUIRED if a.required else a.default)
            for a in parser._actions[1:]] == flags
    # The usage line wraps at the terminal's width.
    assert " ".join(parser.format_usage().split()) == usage


@pytest.mark.parametrize("command, flags", [("train", TRAIN_FLAGS), ("recover", RECOVER_FLAGS)])
def test_each_config_flag_sets_the_dest_of_its_field(command, flags):
    # The config is built from the flags by field name; --help shows each
    # field's name as the flag's metavar.
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    dests = {flag: a.dest for a in sub.choices[command]._actions for flag in a.option_strings}
    assert {dests[flag] for flag, _ in flags.values()} == set(flags)
    assert all(dests[flag] == name for name, (flag, _) in flags.items())


def test_train_zero_epochs_exits_2_before_data(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    monkeypatch.setattr(cli.training, "train_vae", no_compute)
    rc = cli.main(["train", "--arch", "2,8,16", "--epochs", "0", "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "gcs: error: --epochs must be >= 1, got 0\n"
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "m.decoder.json").exists()


@pytest.mark.parametrize("argv", [
    ["coherence", "--weights", "net.json"],
    ["train", "--arch", "2,8,16", "--out", "m.json"],
    ["recover", "--weights", "net.json", "--m", "8"],
    ["phase", "--config", "phase.json"],
    ["sweep", "--config", "sweep.json"],
    ["rip", "--weights", "net.json", "--m-list", "8"],
    ["subspace-rip", "--n", "16", "--k", "2", "--m-list", "8"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2_before_dispatch(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for command in ("coherence", "train", "recover", "phase", "sweep", "rip", "subspace_rip"):
        monkeypatch.setattr(cli, f"cmd_{command}", no_compute)
    rc = cli.main(["--seed", "-1", "--out-dir", "out"] + argv)
    assert rc == 2
    assert capsys.readouterr().err == "gcs: error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


SUBSPACE = ["subspace-rip", "--unitary", "dct", "--n", "32", "--k", "3"]
RIP = ["rip", "--weights", "net.json", "--unitary", "dct", "--m-list", "8"]


@pytest.mark.parametrize("argv, message", [
    (SUBSPACE + ["--m-list", "0,16"], "got m=0, n=32"),
    (SUBSPACE + ["--m-list", "80"], "got m=80, n=32"),
    (SUBSPACE + ["--m-list", "16", "--trials", "0"], "trials must be >= 1, got 0"),
    (RIP + ["--trials", "0"], "trials must be >= 1, got 0"),
    (RIP + ["--chord-samples", "0"], "chord_samples must be >= 1, got 0"),
    (RIP + ["--delta", "-1"], "delta must be positive, got -1.0"),
    (RIP + ["--delta", "0"], "delta must be positive, got 0.0"),
    (RIP + ["--delta", "nan"], "delta must be finite, got nan"),
    (SUBSPACE + ["--m-list", "16", "--delta", "0"], "delta must be positive, got 0.0"),
    (SUBSPACE + ["--m-list", "16", "--delta", "1"], "delta must be in (0, 1), got 1.0"),
    (SUBSPACE + ["--m-list", "8,16,8"], "m = 8 appears twice in the m grid"),
    (RIP + ["--m-list", "8,8", "--trials", "2"], "m = 8 appears twice in the m grid"),
    (["coherence", "--weights", "net.json", "--mc-samples", "0"], "samples must be >= 1, got 0"),
], ids=["subspace-m0", "subspace-m-above-n", "subspace-trials0", "rip-trials0",
        "rip-chords0", "rip-delta-negative", "rip-delta0", "rip-delta-nan", "subspace-delta0",
        "subspace-delta1", "subspace-repeated-m", "rip-repeated-m", "coherence-mc-samples0"])
def test_rip_bad_grid_or_count_exits_2_before_any_trial(tmp_path, monkeypatch, capsys,
                                                        argv, message):
    monkeypatch.chdir(tmp_path)
    save_net(tmp_path, [2, 8, 16], seed=1)
    monkeypatch.setattr(cli.harness, "run_indexed", no_compute)
    monkeypatch.setattr(cli.harness, "ChordSampler", no_compute)
    monkeypatch.setattr(cli.harness, "subspace_coherence", no_compute)
    monkeypatch.setattr(cli.coh, "network_coherence_heuristic", no_compute)
    monkeypatch.setattr(cli.coh, "chord_coherence_mc", no_compute)
    rc = cli.main(["--out-dir", "out"] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: ") and message in err
    assert not (tmp_path / "out").exists()


def write_unfit_models(tmp_path):
    """Model files for widths [2, 8, 16], each whole but for one part that
    does not fit them: w_mu one column short, b_mu or the first encoder bias
    cut to one entry, the decoder's widths edited to [2, 9, 16], or its final
    activation a sigmoid. Also copies of out/desk/weights/g_w_low.json with
    its "widths" edited to [9, 99] or its final activation a sigmoid."""
    # 340 is the size of the [2, 8, 16] layout.
    obj = vae_to_json(VaeModel([2, 8, 16], derive_rng(4).standard_normal(340)))
    enc, dec = obj["encoder"], obj["decoder"]
    w_mu = {**enc["w_mu"], "cols": 7, "data": enc["w_mu"]["data"].reshape(2, 8)[:, :7].ravel()}
    layer = {**enc["layers"][0], "bias": enc["layers"][0]["bias"][:1]}
    for name, edit in [("w_mu_short", {"w_mu": w_mu}), ("b_mu_cut", {"b_mu": enc["b_mu"][:1]}),
                       ("bias_cut", {"layers": [layer]})]:
        write_json({**obj, "encoder": {**enc, **edit}}, str(tmp_path / f"{name}.json"))
    for name, edit in [("widths_model", {"widths": [2, 9, 16]}),
                       ("sigmoid_model", {"final_activation": "sigmoid"})]:
        write_json({**obj, "decoder": {**dec, **edit}}, str(tmp_path / f"{name}.json"))
    with open(os.path.join(ROOT, "out", "desk", "weights", "g_w_low.json")) as f:
        net = json.load(f)
    for name, edit in [("widths", {"widths": [9, 99]}), ("sigmoid", {"final_activation": "sigmoid"})]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**net, **edit}))


WIDTHS_EDITED = "widths.json: bad contents: widths [9, 99], where the layers give [4, 16, 64]"
SIGMOID = "bad contents: final activation 'sigmoid': every network's final layer is linear"
# binary.json holds bytes that are not UTF-8.
NOT_UTF8 = ("binary.json: malformed JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte")


@pytest.mark.parametrize("argv, edits, message", [
    (["phase", "--config", "absent.json"], {},
     "No such file or directory: 'absent.json'"),
    (["sweep", "--config", "bad.json"], {}, "bad.json: malformed JSON: "),
    (["phase", "--config", "list.json"], {}, "config list.json must hold a JSON object"),
    (["rip", "--weights", "absent.json", "--m-list", "8"], {},
     "No such file or directory: 'absent.json'"),
    (["coherence", "--weights", "bad.json"], {}, "bad.json: malformed JSON: "),
    (["phase", "--config", "phase.json"], {"w_low": "absent.json"},
     "No such file or directory: 'absent.json'"),
    (["phase", "--config", "phase.json"], {"w_high": "bad.json"}, "bad.json: malformed JSON: "),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "bad.json"}},
     "bad.json: malformed JSON: "),
    (["phase", "--config", "phase.json"], {"m_list": None},
     "config phase.json is missing required key 'm_list'"),
    (["phase", "--config", "phase.json"], {"inner_weights": None},
     "config phase.json is missing required key 'inner_weights'"),
    (["phase", "--config", "phase.json"], {"w_high": None},
     "config phase.json is missing required key 'w_high'"),
    (["phase", "--config", "phase.json"], {"w_low": None},
     "config phase.json is missing required key 'w_low'"),
    (["sweep", "--config", "sweep.json"], {"models": None},
     "config sweep.json is missing required key 'models'"),
    (["sweep", "--config", "sweep.json"], {"test_data": None},
     "config sweep.json is missing required key 'test_data'"),
    (["sweep", "--config", "sweep.json"], {"m_list": None},
     "config sweep.json is missing required key 'm_list'"),
    (["sweep", "--config", "sweep.json"], {"test_data": {"kind": "synth"}},
     "test_data is missing required key 'k_true'"),
    (["sweep", "--config", "sweep.json"], {"test_data": {"kind": "idx"}},
     "test_data is missing required key 'images'"),
    (["coherence", "--weights", "rows.json"], {}, "rows.json: missing key 'layers'"),
    (["coherence", "--weights", "nodata.json"], {}, "nodata.json: missing key 'data'"),
    (["coherence", "--weights", "nan.json"], {},
     "nan.json: bad contents: matrix contains NaN/Inf entries"),
    (["rip", "--weights", "chain.json", "--m-list", "8"], {},
     "chain.json: bad contents: layer shape chain broken at (2, 3)"),
    (["phase", "--config", "phase.json"], {"w_high": "rows.json"}, "rows.json: missing key 'cols'"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "rows.json"}},
     "rows.json: missing key 'encoder'"),
    (["phase", "--config", "phase.json"], {"trails": 1, "w_high": "absent.json"},
     "unknown phase config key 'trails' (expected one of betas, m_list, trials, model, "
     "recovery, unitary, inner_weights, w_high, w_low)"),
    (["sweep", "--config", "sweep.json"], {"seed": 3},
     "unknown sweep config key 'seed' (expected one of m_list, trials, model, recovery, "
     "unitary, models, test_data)"),
    (["phase", "--config", "phase.json"], {"recovery": {"seed": 3}},
     "unknown recovery key 'seed' (expected one of learning_rate, max_iters, grad_tol, restarts)"),
    (["phase", "--config", "phase.json"], {"trials": 1.5}, "trials must be an integer, got 1.5"),
    (["phase", "--config", "phase.json"], {"trials": "2"}, "trials must be an integer, got '2'"),
    (["phase", "--config", "phase.json"], {"m_list": [4, "8"]},
     "m must be an integer, got '8'"),
    (["sweep", "--config", "sweep.json"], {"trials": 1.5}, "trials must be an integer, got 1.5"),
    (["phase", "--config", "phase.json"], {"unitary": 5}, "unknown unitary 5"),
    (["phase", "--config", "phase.json"], {"m_list": [4, 4], "trials": 2},
     "m = 4 appears twice in the m grid"),
    (["phase", "--config", "phase.json"], {"m_list": 16},
     "m_list must be a list of integers, got 16"),
    (["phase", "--config", "phase.json"], {"m_list": True},
     "m_list must be a list of integers, got True"),
    (["phase", "--config", "phase.json"], {"m_list": NULL},
     "m_list must be a list of integers, got None"),
    (["phase", "--config", "phase.json"], {"betas": [0.0, 0.5, 0.5]},
     "betas must not repeat, got [0.0, 0.5, 0.5]"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "w_mu_short.json"}},
     "w_mu_short.json: bad contents: mu weight is float64 (2, 7), where widths "
     "[2, 8, 16] give float64 (2, 8)"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "b_mu_cut.json"}},
     "b_mu_cut.json: bad contents: mu bias is float64 (1,), where widths [2, 8, 16] "
     "give float64 (2,)"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "bias_cut.json"}},
     "bias_cut.json: bad contents: encoder layer 0 bias is float64 (1,), where widths "
     "[2, 8, 16] give float64 (8,)"),
    (["phase", "--config", "phase.json"], {"w_high": NULL},
     "w_high must be a file path string, got None"),
    (["phase", "--config", "phase.json"], {"w_low": 7}, "w_low must be a file path string, got 7"),
    (["phase", "--config", "phase.json"], {"inner_weights": "w1.json"},
     "inner_weights must be a list of file paths, got 'w1.json'"),
    (["phase", "--config", "phase.json"], {"inner_weights": ["w1.json", 7]},
     "each inner_weights entry must be a file path string, got 7"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "model.json", "b": None}},
     "model 'b' must be a file path string, got None"),
    (["sweep", "--config", "sweep.json"], {"test_data": {"kind": "idx", "images": 7}},
     "test_data images must be a file path string, got 7"),
    (["sweep", "--config", "sweep.json"],
     {"test_data": {"kind": "synth", "k_true": 2, "count": 4, "seed": 0, "nosie": 0.1}},
     "unknown test_data key 'nosie' (expected one of kind, k_true, count, seed)"),
    (["sweep", "--config", "sweep.json"],
     {"test_data": {"kind": "synth", "k_true": 2, "count": 4, "seed": 0, "images": "x.idx"}},
     "unknown test_data key 'images' (expected one of kind, k_true, count, seed)"),
    (["sweep", "--config", "sweep.json"], {"test_data": {"kind": "idx", "images": "x", "seed": 0}},
     "unknown test_data key 'seed' (expected one of kind, images)"),
    (["phase", "--config", "phase.json"], {"betas": [0.0, float("nan")]},
     "each betas entry must be finite, got nan"),
    (["phase", "--config", "phase.json"], {"betas": [0.0, float("inf")]},
     "each betas entry must be finite, got inf"),
    (["phase", "--config", "phase.json"], {"betas": [0.0, BIG]},
     f"each betas entry must be finite, got {BIG}"),
    (["phase", "--config", "phase.json"], {"recovery": {"grad_tol": BIG}},
     f"recovery grad_tol must be finite, got {BIG}"),
    (["sweep", "--config", "sweep.json"], {"recovery": {"grad_tol": BIG}},
     f"recovery grad_tol must be finite, got {BIG}"),
    (["phase", "--config", "phase.json"], {"recovery": {"grad_tol": math.inf}},
     "recovery grad_tol must be finite, got inf"),
    (["coherence", "--weights", "widths.json"], {}, WIDTHS_EDITED),
    (["rip", "--weights", "widths.json", "--m-list", "8"], {}, WIDTHS_EDITED),
    (["recover", "--weights", "widths.json", "--m", "8"], {}, WIDTHS_EDITED),
    (["phase", "--config", "phase.json"], {"w_high": "widths.json"},
     "widths.json: missing key 'rows'"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "widths_model.json"}},
     "widths_model.json: bad contents: encoder layer 0 weight is float64 (8, 16), where widths "
     "[2, 9, 16] give float64 (9, 16)"),
    (["coherence", "--weights", "sigmoid.json"], {}, "sigmoid.json: " + SIGMOID),
    (["rip", "--weights", "sigmoid.json", "--m-list", "8"], {}, "sigmoid.json: " + SIGMOID),
    (["recover", "--weights", "sigmoid.json", "--m", "8"], {}, "sigmoid.json: " + SIGMOID),
    (["phase", "--config", "phase.json"], {"w_low": "sigmoid.json"},
     "sigmoid.json: missing key 'rows'"),
    (["sweep", "--config", "sweep.json"], {"models": {"a": "sigmoid_model.json"}},
     "sigmoid_model.json: " + SIGMOID),
    (["coherence", "--weights", "complex.json"], {},
     "complex.json: bad contents: weight contains complex entries; a network is real"),
    (["phase", "--config", "phase.json"], {"w_high": "complex_w.json"},
     "complex_w.json: bad contents: weight contains complex entries; a network is real"),
    (["coherence", "--weights", "binary.json"], {}, NOT_UTF8),
    (["phase", "--config", "binary.json"], {}, NOT_UTF8),
    (["rip", "--weights", "binary.json", "--m-list", "8"], {}, NOT_UTF8),
    (["rip", "--weights", os.path.join(ROOT, "out", "desk", "weights", "g_w_low.json"),
      "--unitary", "file:binary.json", "--m-list", "8"], {}, NOT_UTF8),
], ids=["no-config", "bad-config", "list-config", "no-weights", "bad-weights", "no-phase-weights",
        "bad-phase-weights", "bad-sweep-model", "phase-m_list", "phase-inner_weights",
        "phase-w_high", "phase-w_low", "sweep-models", "sweep-test_data", "sweep-m_list",
        "synth-k_true", "idx-images", "weights-no-layers", "weights-no-data", "weights-nan", "weights-no-chain",
        "phase-weights-no-cols", "sweep-model-no-encoder", "phase-unknown-key",
        "sweep-unknown-key", "phase-recovery-seed-key", "phase-float-trials", "phase-string-trials", "phase-string-m",
        "sweep-float-trials", "phase-unitary-not-a-string", "phase-repeated-m",
        "phase-integer-m_list", "phase-bool-m_list", "phase-null-m_list",
        "phase-repeated-beta", "sweep-model-w_mu-short", "sweep-model-b_mu-cut",
        "sweep-model-encoder-bias-cut", "phase-null-w_high", "phase-integer-w_low",
        "phase-string-inner_weights", "phase-integer-inner-entry", "sweep-null-model",
        "idx-integer-images", "synth-unknown-key", "synth-images-key", "idx-unknown-key",
        "phase-nan-beta", "phase-infinite-beta", "phase-big-beta", "phase-big-grad_tol",
        "sweep-big-grad_tol", "phase-infinite-grad_tol", "coherence-widths-edited",
        "rip-widths-edited", "recover-widths-edited", "phase-widths-edited",
        "sweep-model-widths-edited", "coherence-sigmoid", "rip-sigmoid", "recover-sigmoid",
        "phase-sigmoid", "sweep-model-sigmoid", "coherence-complex-layer",
        "phase-complex-w_high", "coherence-not-utf8", "phase-config-not-utf8",
        "rip-weights-not-utf8", "rip-unitary-not-utf8"])
def test_bad_file_or_config_key_exits_2_before_any_compute(tmp_path, monkeypatch, capsys,
                                                          argv, edits, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"rows": 2,')
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "rows.json").write_text('{"rows": 2}')
    (tmp_path / "nodata.json").write_text('{"layers": [{"rows": 2, "cols": 2}]}')
    (tmp_path / "nan.json").write_text('{"layers": [{"rows": 1, "cols": 1, "data": [NaN]}]}')
    (tmp_path / "chain.json").write_text('{"layers": [{"rows": 1, "cols": 2, "data": [1, 2]}, '
                                         '{"rows": 2, "cols": 3, "data": [1, 2, 3, 4, 5, 6]}]}')
    write_unfit_models(tmp_path)
    # A 2 -> 8 -> 16 network whose final layer, and a phase final layer, are complex.
    layers = [{"rows": 8, "cols": 2, "data": [1.0] * 16},
              {"rows": 16, "cols": 8, "complex": True, "data": [0.5] * 256}]
    (tmp_path / "complex.json").write_text(json.dumps({"widths": [2, 8, 16], "layers": layers}))
    save_matrix(1j * np.ones((8, 4)), str(tmp_path / "complex_w.json"))
    (phase_config if argv[0] == "phase" else sweep_config)(tmp_path, **edits)
    for fn in ("recover_batch", "network_coherence_heuristic", "run_rip_check"):
        monkeypatch.setattr(cli.harness, fn, no_compute)
    monkeypatch.setattr(cli.coh, "coherence_report", no_compute)
    monkeypatch.setattr(cli.training, "synth_dataset", no_compute)
    rc = cli.main(["--out-dir", "out"] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: ") and message in err
    assert not (tmp_path / "out").exists()


RECOVER = ["recover", "--weights", "net.json", "--m", "8"]


SWEEP = ["sweep", "--config", "sweep.json"]


def synth(**edits):
    return {"kind": "synth", "k_true": 2, "count": 4, "seed": 0, **edits}


@pytest.mark.parametrize("argv, test_data, message", [
    (RECOVER + ["--restarts", "0"], None, "recovery restarts must be positive, got 0"),
    (RECOVER + ["--max-iters", "0"], None, "recovery max_iters must be positive, got 0"),
    (RECOVER + ["--lr", "0"], None, "recovery learning_rate must be positive, got 0.0"),
    (RECOVER + ["--lr", "inf"], None, "recovery learning_rate must be finite, got inf"),
    (RECOVER + ["--grad-tol", "-1"], None, "recovery grad_tol must be positive, got -1.0"),
    (RECOVER + ["--grad-tol", "inf"], None, "recovery grad_tol must be finite, got inf"),
    (RECOVER + ["--noise", "-1"], None, "--noise must be >= 0, got -1.0"),
    (RECOVER + ["--noise", "nan"], None, "--noise must be finite, got nan"),
    (SWEEP, {"kind": "mnist", "images": "absent"},
     "unknown test_data kind 'mnist' (expected synth or idx)"),
    (SWEEP, synth(count=1.5), "count must be an integer, got 1.5"),
    (SWEEP, synth(seed=-1), "test_data seed must be >= 0, got -1"),
    (SWEEP, synth(count=0), "count must be >= 1, got 0"),
    (SWEEP, synth(k_true=0), "k_true must be >= 1, got 0"),
], ids=["restarts0", "max-iters0", "lr0", "lr-inf", "grad-tol-negative", "grad-tol-inf",
        "noise-negative",
        "noise-nan", "test-data-kind", "test-data-float-count", "test-data-negative-seed",
        "test-data-count0", "test-data-k_true0"])
def test_bad_recover_flag_or_test_data_kind_exits_2_before_any_load(tmp_path, monkeypatch, capsys,
                                                                   argv, test_data, message):
    monkeypatch.chdir(tmp_path)
    sweep_config(tmp_path, test_data=test_data or {"kind": "mnist", "images": "absent"})
    monkeypatch.setattr(cli.gnn, "load_network", no_compute)
    monkeypatch.setattr(cli.training, "load_vae", no_compute)
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"gcs: error: {message}\n"


def test_overflowing_beta_exits_2_with_one_error_line(tmp_path):
    # A finite beta so large that the norm of W_beta overflows: the phase
    # portrait refuses it before the coherence heuristic's QR, and the CLI
    # reports it like any other bad input, with no traceback or warning.
    with open(os.path.join(ROOT, "configs", "phase_desk.json")) as f:
        base = json.load(f)
    config = write_config(tmp_path / "phase.json", base,
                          {"betas": [1.7e308], "m_list": [8], "trials": 1})
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-m", "gcs.cli", "--out-dir", str(tmp_path / "out"),
                           "phase", "--config", config],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ("gcs: error: betas entry 1.7e+308 overflows "
                           "W_beta = beta*w_high + (1 - beta)*w_low\n")
    assert not (tmp_path / "out" / "phase.csv").exists()


def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    # `gcs ... | head` can close the pipe before gcs writes its report; gcs
    # then exits 1 without a traceback or an error line.
    path = str(tmp_path / "net.json")
    save_network(GenerativeNetwork([np.ones((16, 4)), np.eye(64, 16)]), path)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "gcs.cli", "coherence", "--weights", path,
                               "--mc-samples", "10"], stdout=write_end, stderr=subprocess.PIPE,
                              cwd=ROOT, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_subspace_rip_prints_strict_json_where_the_fit_is_undefined(tmp_path, capsys):
    # m = n keeps every row, so no trial exceeds delta and the tail fit has
    # no R^2 or slope: it prints null for them, never NaN, which is not JSON.
    assert cli.main(["--out-dir", str(tmp_path), "subspace-rip", "--n", "16", "--k", "4",
                     "--m-list", "16", "--trials", "2"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    fit = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert (fit["c"], fit["r_squared"], fit["slope"]) == (0.0, None, None)


@pytest.mark.parametrize("argv, message", [
    (RECOVER + ["--lr", "1e308"], "all 1 restarts hit a nonfinite objective"),
    (["phase", "--config", "phase.json"], "all 1 restarts hit a nonfinite objective"),
    (["train", "--arch", "2,8,16", "--lr", "1e308", "--epochs", "1", "--batch", "32",
      "--synth-count", "100", "--out", "m.json"], "loss became nan at epoch 0"),
    # One batch, so one step: its loss is finite, and the step it takes
    # leaves the parameters nonfinite, which saving would name as
    # "matrix contains NaN/Inf entries".
    (["train", "--arch", "2,8,16", "--lr", "1e308", "--epochs", "1", "--synth-count", "50",
      "--out", "m.json"], "training made the parameters nonfinite at epoch 0 "
                          "(learning rate 1e+308)"),
    (RECOVER + ["--noise", "1e308"], "--noise 1e+308 overflows the measurement b"),
], ids=["recover-lr", "phase-learning_rate", "train-lr", "train-lr-last-step", "recover-noise"])
def test_overflow_at_finite_extremes_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                                 argv, message):
    # Finite inputs so large that Adam's step or the noisy measurement
    # overflows: the run reports it in one line, and numpy warns nothing
    # (tier-1 turns a RuntimeWarning into an error).
    monkeypatch.chdir(tmp_path)
    save_net(tmp_path, [2, 8, 16], seed=1)
    phase_config(tmp_path, recovery={"learning_rate": 1e308})
    assert cli.main(["--out-dir", "out"] + argv) == 2
    assert capsys.readouterr().err == f"gcs: error: {message}\n"
    assert not {"m.json", "m.decoder.json", "out"} & set(os.listdir(tmp_path))


@pytest.mark.parametrize("argv, message", [
    (RIP + ["--chord-samples", str(2**70)],
     f"chord_samples={2**70} chords of up to 16 float64 entries"),
    (["subspace-rip", "--n", str(2**70), "--k", "2", "--m-list", "8"],
     f"n={2**70} rows of k=2 float64 entries"),
    (["train", "--arch", f"2,{2**70},16", "--out", "m.json"],
     # 17w + 3w weights of width w, 2(w + 1) per latent head, 16(w + 1) out.
     f"the parameters of arch 2,{2**70},16: {40 * 2**70 + 20} float64 entries"),
], ids=["rip-chord-samples", "subspace-rip-n", "train-arch-width"])
def test_size_numpy_cannot_hold_exits_2_before_it_is_allocated(tmp_path, monkeypatch, capsys,
                                                               argv, message):
    # Sizes past numpy's largest array: each run names the flag in one line,
    # where numpy's own "Maximum allowed dimension exceeded" is a traceback.
    monkeypatch.chdir(tmp_path)
    save_net(tmp_path, [2, 8, 16], seed=1)
    assert cli.main(["--out-dir", "out"] + argv) == 2
    assert capsys.readouterr().err == (f"gcs: error: {message} exceed the largest array numpy "
                                       "can hold\n")
    assert sorted(os.listdir(tmp_path)) == ["net.json"]


def write_idx(path, count, rows, cols, missing=0):
    """An IDX image file holding count black rows x cols images, less the
    last `missing` pixel bytes."""
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, rows, cols)
                + bytes(count * rows * cols - missing))


@pytest.mark.parametrize("idx, test_data, message, want_loads", [
    ((3, 28, 28), None, "test data dim 784 != decoder output 64 of model ", 1),
    ((0, 8, 8), None, "the sweep's test data holds no samples", 1),
    ((3, 8, 8, 1), None, "images.idx: expected 208 bytes, got 207", 0),
    (None, synth(k_true=100), "need 1 <= k_true <= n, got k_true=100, n=64", 1),
    (None, synth(count=2**70), f"count={2**70} samples of n=64 float64 entries exceed the "
                               "largest array numpy can hold", 1),
], ids=["wrong-dim", "no-images", "truncated-body", "synth-k_true-above-n", "synth-count-2**70"])
def test_sweep_idx_test_data_of_wrong_shape_exits_2_before_any_trial(tmp_path, monkeypatch, capsys,
                                                                     idx, test_data, message,
                                                                     want_loads):
    # The desk sweep's n = 64 models against idx or synth test data. An idx
    # file is read in full before any model loads; synth data are drawn once
    # the first model gives n.
    monkeypatch.chdir(ROOT)
    if idx is not None:
        write_idx(tmp_path / "images.idx", *idx)
        test_data = {"kind": "idx", "images": str(tmp_path / "images.idx")}
    with open(os.path.join("configs", "sweep_desk.json")) as f:
        cfg = json.load(f)
    config = write_config(tmp_path / "sweep.json", cfg, {"test_data": test_data})
    monkeypatch.setattr(cli.harness, "run_indexed", no_compute)
    monkeypatch.setattr(cli.harness, "recover_batch", no_compute)
    loads, load_vae = [], cli.training.load_vae

    def counted(path):
        loads.append(path)
        return load_vae(path)

    monkeypatch.setattr(cli.training, "load_vae", counted)
    rc = cli.main(["--out-dir", str(tmp_path / "out"), "sweep", "--config", config])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gcs: error: ") and message in err
    assert not (tmp_path / "out").exists()
    # Bad data are rejected before the second model loads.
    assert len(loads) == want_loads


class Reached(Exception):
    pass


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(ROOT, "configs"))))
def test_shipped_configs_pass_the_key_check(monkeypatch, name):
    # Each shipped config builds its run up to the recovery batch, with every
    # key it holds passed on: trials sets the batch size, recovery its config.
    monkeypatch.chdir(ROOT)
    with open(os.path.join("configs", name)) as f:
        cfg_json = json.load(f)
    seen = []

    def reached(problems, config):
        seen.append((len(problems), config))
        raise Reached

    monkeypatch.setattr(cli.harness, "recover_batch", reached)
    command = name.split("_")[0]
    with pytest.raises(Reached):
        cli.main([command, "--config", os.path.join("configs", name)])
    grid = cfg_json["betas"] if command == "phase" else cfg_json["models"]
    assert seen == [(len(grid) * len(cfg_json["m_list"]) * cfg_json["trials"],
                     RecoveryConfig(**cfg_json["recovery"]))]


def desk_lines(*commands):
    """The scripts/run_all_desk.sh command lines of the given subcommands, as
    argument lists for cli.main, with the out-dir they write to. The script
    holds four gcs lines, each checked by one of the desk tests below."""
    with open(os.path.join(ROOT, "scripts", "run_all_desk.sh")) as f:
        text = f.read().replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("gcs ")]
    assert len(argvs) == 4
    lines = [(argv, argv[argv.index("--out-dir") + 1]) for argv in argvs
             if set(commands) & set(argv)]
    assert len(lines) == len(commands)
    return lines


@pytest.mark.parametrize("argv", [[], ["a", "b", "phase-desk", "0"]], ids=["none", "four"])
def test_bench_pairs_prints_usage_and_exits_2_without_its_arguments(argv):
    script = os.path.join(ROOT, "scripts", "bench_pairs.sh")
    done = subprocess.run(["sh", script, *argv], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "usage: sh scripts/bench_pairs.sh PARENT CHANGE WORKLOAD FIRST LAST\n"


@pytest.mark.parametrize("body", ["import sys; sys.exit(3)", "print('no metrics')"],
                         ids=["exit-3", "no-json"])
def test_bench_pairs_stops_at_a_failed_run(tmp_path, body):
    # The parent runs first at seed 0 and succeeds; the change's run fails,
    # so the script stops there and prints no summary.
    for side, code in [("parent", 'print(\'{"metrics": {}}\')'), ("change", body)]:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(code + "\n")
    script = os.path.join(ROOT, "scripts", "bench_pairs.sh")
    done = subprocess.run(["sh", script, str(tmp_path / "parent"), str(tmp_path / "change"),
                           "phase-desk", "0", "1"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"bench_pairs: change run in {tmp_path / 'change'} failed at seed 0\n"


@pytest.mark.parametrize("change_base,lower,higher", [(5, "yes", "no"), (8, "no", "no"),
                                                      (13, "no", "yes")])
def test_bench_pairs_separation_line(tmp_path, change_base, lower, higher):
    # Every metric reads base + seed over seeds 0-2; the parent's base is 10,
    # so a change base of 8 ties the best parent run, which does not separate.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    for side, base in [("parent", 10), ("change", change_base)]:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "s = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            f"print(json.dumps({{'metrics': {{n: {{'value': {base} + s}} for n in {names!r}}}}}))\n")
    script = os.path.join(ROOT, "scripts", "bench_pairs.sh")
    done = subprocess.run(["sh", script, str(tmp_path / "parent"), str(tmp_path / "change"),
                           "phase-desk", "0", "2"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # One line per seed, then the verdicts as one JSON object.
    *seeds, last = done.stdout.splitlines()
    assert [line.split(":")[0] for line in seeds] == ["seed 0", "seed 1", "seed 2"]
    summary = json.loads(last)
    assert summary["workload"] == "phase-desk" and sorted(summary["metrics"]) == sorted(names)
    for name, verdict in [("wall_s", lower), ("success_frac", higher)]:
        assert summary["metrics"][name]["separation"] == (verdict == "yes")
    # wall_s: lower is better, and its bound allows 0.25 x 11 worse.
    assert summary["metrics"]["wall_s"] == {
        "parent_median": 11, "change_median": change_base + 1, "parent_q1": 10.5,
        "parent_q3": 11.5, "wins": 3 if change_base < 10 else 0, "pairs": 3,
        "claim": 10 - change_base > 1, "no_regression": change_base - 10 <= 2.75,
        "separation": lower == "yes"}


def test_desk_rip_outputs_reproduce(tmp_path, monkeypatch, capsys):
    # The rip and subspace-rip lines of the desk script rewrite their committed
    # CSVs byte for byte.
    monkeypatch.chdir(ROOT)
    for argv, out_dir in desk_lines("rip", "subspace-rip"):
        i = argv.index("--out-dir") + 1
        argv[i] = str(tmp_path / out_dir)
        assert cli.main(argv) == 0
        names = sorted(os.listdir(out_dir))
        assert names == sorted(os.listdir(argv[i])) and names
        assert filecmp.cmpfiles(out_dir, argv[i], names, shallow=False)[0] == names


@pytest.mark.parametrize("command, key", [("phase", ("beta", "m", "trial")),
                                          ("sweep", ("model", "m", "trial"))])
def test_desk_phase_and_sweep_rows_reproduce(tmp_path, monkeypatch, command, key):
    # The desk script's phase and sweep lines, rerun at 2 trials per cell,
    # rewrite their committed rows byte for byte. A row depends only on its
    # seed, cell and trial, so the rows of 2 trials are those of 20.
    monkeypatch.chdir(ROOT)
    [(argv, out_dir)] = desk_lines(command)
    i = argv.index("--config") + 1
    with open(argv[i]) as f:
        cfg = json.load(f)
    cfg["trials"] = 2
    argv[i] = str(tmp_path / "config.json")
    with open(argv[i], "w") as f:
        json.dump(cfg, f)
    j = argv.index("--out-dir") + 1
    argv[j] = str(tmp_path / out_dir)
    assert cli.main(argv) == 0
    name = f"{command}.csv"
    with open(os.path.join(out_dir, name)) as f:
        header, *want = f.read().splitlines()
    with open(os.path.join(argv[j], name)) as f:
        got_header, *got = f.read().splitlines()
    assert got_header == header
    cols = [header.split(",").index(k) for k in key]
    by_key = {tuple(line.split(",")[c] for c in cols): line for line in want}
    grid = cfg["betas"] if command == "phase" else cfg["models"]
    assert len(got) == len(grid) * len(cfg["m_list"]) * 2
    for line in got:
        assert line == by_key[tuple(line.split(",")[c] for c in cols)]


def read_records(path):
    """The rows of a CSV the harness wrote, each value an int, a float or a string."""
    def value(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text

    with open(path) as f:
        return [{k: value(v) for k, v in row.items()} for row in csv.DictReader(f)]


@pytest.mark.parametrize("command", ["phase", "sweep"])
def test_desk_plots_reproduce_from_the_committed_records(tmp_path, monkeypatch, command):
    # The desk script's phase and sweep lines, handed the committed records in
    # place of a run, rewrite every committed file byte for byte, the SVG
    # plots with the CSVs.
    monkeypatch.chdir(ROOT)
    [(argv, out_dir)] = desk_lines(command)
    names = sorted(os.listdir(out_dir))
    tables = [read_records(os.path.join(out_dir, name)) for name in names if name.endswith(".csv")]
    monkeypatch.setattr(cli.harness, "run_phase_portrait",
                        lambda inner, w_high, w_low, cfg, u, seed: tables[0])
    monkeypatch.setattr(cli.harness, "run_measurement_sweep",
                        lambda models, data, cfg, u, seed: tables)
    i = argv.index("--out-dir") + 1
    argv[i] = str(tmp_path / out_dir)
    assert cli.main(argv) == 0
    assert sorted(os.listdir(argv[i])) == names
    assert filecmp.cmpfiles(out_dir, argv[i], names, shallow=False)[0] == names


def perfbench_references():
    """(module, name) of every gcs.<module>.<name> and harness.<name> that the
    code of perfbench/*.py reads (harness is its name for gcs.harness)."""
    refs = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "harness":
                refs.add(("harness", node.attr))
            elif (isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Name)
                  and node.value.value.id == "gcs"):
                refs.add((node.value.attr, node.attr))
    return refs


def test_every_benchmark_binding_resolves_in_gcs(monkeypatch):
    # perfbench/instrument.py wraps each (module, attribute) of SPANS and HOT
    # by getattr, and perfbench's code reads other gcs names directly, so a
    # binding gone from gcs would crash a benchmark run.
    import importlib

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    instrument = importlib.import_module("instrument")
    bindings = [(module, name) for module, name, _ in instrument.SPANS + instrument.HOT]
    assert bindings
    refs = perfbench_references()
    # The scan finds the names the set-up, the trial clock and the driver read.
    assert {("harness", "run_indexed"), ("linops", "load_matrix"), ("cli", "resolve_unitary"),
            ("training", "load_vae"), ("training", "synth_dataset"),
            ("gnn", "GenerativeNetwork"), ("gnn", "save_network"),
            ("transforms", "dct2_operator"), ("cli", "main")} <= refs
    missing = [f"gcs.{module}.{name}" for module, name in sorted({*bindings, *refs})
               if not hasattr(importlib.import_module(f"gcs.{module}"), name)]
    assert missing == []


# The values of the error walk below. 2**70 is added where a value may size
# an array, that is, everywhere but for the counts that size a loop or a
# Python list: such a count is valid input at 2**70, and a run with it would
# not end or would exhaust memory, so it is not run. BIG, too large for a
# float, is added where a config key takes a real number.
WALK_VALUES = [None, "x", -1, 0, 1.5, 1e308, math.nan, math.inf, [], {}, True, [0], ["x"]]
LOOP_COUNTS = {"trials", "restarts", "max_iters", "epochs", "--trials", "--restarts",
               "--max-iters", "--epochs", "--mc-samples", "--batch"}
REALS = {"betas": [BIG], "learning_rate": BIG, "grad_tol": BIG}


def walk_values(name):
    return (WALK_VALUES + ([] if name in LOOP_COUNTS else [2**70])
            + ([REALS[name]] if name in REALS else []))


def test_every_bad_value_of_a_config_key_or_flag_exits_2_with_one_error_line(tmp_path,
                                                                              monkeypatch, capsys):
    # Every key of both desk configs, and every numeric or path flag of the
    # other commands, set to each value of a fixed table over small, short
    # runs (one trial of one m, 20 Adam iterations at most). Each run exits 0,
    # or exits 2 with one "gcs: error:" line, or an argparse type error whose
    # last line is "gcs <command>: error: ...", and numpy warns nothing.
    monkeypatch.chdir(tmp_path)
    _, net = save_net(tmp_path, [2, 8, 16], seed=1)
    out = str(tmp_path / "out")

    def rooted(paths):
        if isinstance(paths, str):
            return os.path.join(ROOT, paths)
        if isinstance(paths, list):
            return [rooted(p) for p in paths]
        return {name: rooted(p) for name, p in paths.items()}

    short = {"m_list": [8], "trials": 1, "recovery": {"learning_rate": 0.1, "max_iters": 20,
                                                      "grad_tol": 1e-7, "restarts": 1}}
    bases = {}
    for name, edits in [("phase", {"betas": [0.5]}), ("sweep", {})]:
        with open(os.path.join(ROOT, "configs", f"{name}_desk.json")) as f:
            cfg = {**json.load(f), **short, **edits}
        for key in ("inner_weights", "w_high", "w_low", "models"):
            if key in cfg:
                cfg[key] = rooted(cfg[key])
        if name == "sweep":
            cfg["test_data"] = {**cfg["test_data"], "count": 20}
        bases[name] = cfg
    flags = {
        "coherence": {"--weights": net, "--mc-samples": "50"},
        "recover": {"--weights": net, "--m": "8", "--noise": "0", "--lr": "0.1",
                    "--max-iters": "20", "--grad-tol": "1e-7", "--restarts": "1"},
        "rip": {"--weights": net, "--m-list": "8", "--delta": "0.5", "--chord-samples": "20",
                "--trials": "1"},
        "subspace-rip": {"--n": "16", "--k": "2", "--m-list": "8", "--delta": "0.4",
                         "--trials": "1"},
        "train": {"--data": "synth", "--arch": "2,4,16", "--reg-weight": "1e4", "--lambda": "1",
                  "--lr": "1e-3", "--batch": "32", "--epochs": "1", "--synth-count": "40",
                  "--synth-k": "2", "--out": "m.json"},
    }

    def keys(cfg, at=()):
        for key, value in cfg.items():
            yield at + (key,)
            if isinstance(value, dict):
                yield from keys(value, at + (key,))

    def config_run(name, cfg, what):
        path = tmp_path / f"{name}-{len(runs)}.json"
        with open(path, "w") as f:
            json.dump(cfg, f)
        return name, what, ["--out-dir", out, name, "--config", str(path)]

    def flag_run(command, values, what):
        return command, what, ["--out-dir", out, command, *(a for item in values.items()
                                                               for a in item)]

    # Each base run must exit 0, so that the walk starts from a working run.
    runs = []
    for name, base in bases.items():
        runs.append(config_run(name, base, "base"))
        for where in keys(base):
            for value in walk_values(where[-1]):
                cfg = json.loads(json.dumps(base))  # a deep copy
                block = cfg
                for key in where[:-1]:
                    block = block[key]
                block[where[-1]] = value
                runs.append(config_run(name, cfg, f"{'.'.join(where)}={value!r}"))
    for command, base in flags.items():
        runs.append(flag_run(command, base, "base"))
        for flag in base:
            for value in walk_values(flag):
                text = value if isinstance(value, str) else json.dumps(value)
                runs.append(flag_run(command, {**base, flag: text}, f"{flag} {text}"))
    bad = []
    for command, what, argv in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a traceback: recorded, so that every run is seen
                rc = repr(e)
        err = capsys.readouterr().err
        lines = err.splitlines()
        ok = (rc == 0 and err == "" or what != "base" and rc == 2 and (
            len(lines) == 1 and lines[0].startswith("gcs: error: ")
            or lines and lines[-1].startswith(f"gcs {command}: error: argument ")))
        if not ok or caught:
            bad.append((command, what, rc, err, [str(w.message) for w in caught]))
    assert len(runs) > 700
    assert bad == []
