"""Command-line entry point: gcs {coherence, train, recover, phase, sweep,
rip, subspace-rip}.

Experiment configs are JSON files mirroring the harness config dataclasses;
desk-scale defaults ship in configs/. `train --data idx:<images>` reads one
IDX image file, such as MNIST's train-images-idx3-ubyte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import coherence as coh
from . import gnn, harness, recovery, sampling, training, transforms
from .errors import DomainError, GcsError, check_counts, check_number
from .linops import load_matrix, read_json


def check_unitary_spec(spec):
    """spec, after checking that it names a unitary: a name in
    `transforms.KINDS` or file:<path>. It is the type of every --unitary
    flag, so a bad name fails as it is parsed."""
    if not (isinstance(spec, str)
            and (spec in transforms.KINDS or spec.startswith("file:") and spec != "file:")):
        raise DomainError(f"unknown unitary {spec!r} "
                          f"(expected {', '.join(transforms.KINDS)}, or file:<path>)")
    return spec


def resolve_unitary(spec: str, n: int) -> transforms.UnitaryOperator:
    """The unitary spec names, for a problem in R^n: the table kind of size
    n, or the file: matrix, which `transforms.check_unitary_n` checks is n x n."""
    if check_unitary_spec(spec) in transforms.KINDS:
        return transforms.UnitaryOperator(spec, n)
    u = load_matrix(spec[len("file:"):], transforms.explicit_operator)
    transforms.check_unitary_n(u, n)
    return u


def check_out_dir(path: str) -> None:
    """Raise OSError unless path is, or os.makedirs can make, a writable directory."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head) or not os.access(head, os.W_OK | os.X_OK):
        raise NotADirectoryError(f"cannot write to {path}: {head} is not a writable directory")


def _decoder_path(out: str) -> str:
    """Where gcs train writes the decoder of the model it writes to out."""
    return out.removesuffix(".json") + ".decoder.json"


def _ints(s: str) -> list[int]:
    try:
        return [int(x) for x in s.split(",") if x]
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {s!r}") from None


def _print_json(obj) -> None:
    """Print obj as indented JSON; arrays become lists by write_json's rule,
    default=np.ndarray.tolist."""
    print(json.dumps(obj, indent=2, default=np.ndarray.tolist))


def cmd_coherence(args) -> None:
    check_counts(samples=args.mc_samples)
    g = gnn.load_network(args.weights)
    u = resolve_unitary(args.unitary, g.ambient_dim)
    _print_json(coh.coherence_report(g, u, args.mc_samples, args.seed))


def cmd_train(args) -> None:
    if not (args.data == "synth" or args.data.startswith("idx:") and args.data != "idx:"):
        raise DomainError(f"unknown data source {args.data!r} (expected synth or idx:<images>)")
    gnn.check_widths(args.arch)
    check_number("--epochs", args.epochs, 1, integer=True)
    config = _build(training.TrainConfig, vars(args))
    # A bad synth size, like a bad --unitary name, fails before a file: unitary is read.
    if args.data == "synth":
        training.check_synth_dataset(args.arch[-1], args.synth_k, args.synth_count)
    u = resolve_unitary(args.unitary, args.arch[-1]) if args.regularized else None
    if args.data == "synth":
        data = training.synth_dataset(args.arch[-1], args.synth_k, args.synth_count,
                                      sampling.spawn_seed(args.seed, 999))
    else:
        data = training.load_idx(args.data[len("idx:"):])
    model = training.train_vae(data, args.arch, config, u, args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    training.save_vae(model, args.out, _decoder_path(args.out))
    print(f"trained; final epoch loss {model.loss_trace[-1]:.6g}; saved to {args.out}")


def cmd_recover(args) -> None:
    check_number("--m", args.m, sampling.MIN_M[args.model], integer=True)
    check_number("--noise", args.noise, 0)
    cfg = _build(recovery.RecoveryConfig, vars(args))
    g = gnn.load_network(args.weights)
    u = resolve_unitary(args.unitary, g.ambient_dim)
    a = sampling.sampler_for(args.model)(u, args.m, sampling.spawn_seed(args.seed, 0))
    rng = sampling.derive_rng(args.seed, 1)
    z0 = rng.standard_normal(g.code_dim)
    x0 = gnn.forward(g, z0)
    b = sampling.apply(a, x0)
    if args.noise > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            b = b + args.noise * rng.standard_normal(b.shape[0])
        if not np.all(np.isfinite(b)):
            raise DomainError(f"--noise {args.noise} overflows the measurement b")
    res = recovery.recover(g, a, b, cfg, x0=x0, seed=sampling.spawn_seed(args.seed, 2))
    _print_json({**res, "success": res["rre"] is not None and res["rre"] < recovery.SUCCESS_RRE})


def _block(obj, where: str, keys=None, required=()) -> dict:
    """obj, after checking that it is a JSON object that holds every required
    key and, unless keys is None, no key outside keys."""
    if not isinstance(obj, dict):
        raise DomainError(f"{where} must hold a JSON object")
    for key in required:
        if key not in obj:
            raise DomainError(f"{where} is missing required key {key!r}")
    for key in obj:
        if keys is not None and key not in keys:
            raise DomainError(f"unknown {where} key {key!r} (expected one of {', '.join(keys)})")
    return obj


# The config flags whose names are not their fields' dashed names.
_FLAG_NAMES = {"learning_rate": "--lr", "batch_size": "--batch", "lam": "--lambda"}


def _config_flags(parser, cls) -> None:
    """Add to parser one flag per field of the config dataclass cls: its dest
    is the field's name, and its type and default are the field's. A list
    field takes comma-separated integers, and a field without a default is
    a required flag."""
    for f in dataclasses.fields(cls):
        kind = typing.get_type_hints(cls)[f.name]
        parser.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                            type=_ints if kind is list else kind, default=f.default,
                            required=f.default is dataclasses.MISSING)


def _build(cls, values):
    """The config dataclass cls built from the entries of values, a JSON block
    or the parsed flags' vars, that its fields name. A field values leaves
    out takes its default from cls, which also checks the values."""
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})


def _path(value, what: str) -> str:
    """value, after checking that it is a nonempty string: a config value
    that names a file is a path, never a file descriptor or a list of characters."""
    if not isinstance(value, str) or value == "":
        raise DomainError(f"{what} must be a file path string, got {value!r}")
    return value


def _load_config(path: str, cls, what: str, files):
    """(JSON config object, the config dataclass cls built from it).

    A config holds the fields of cls (m_list required), an optional unitary
    spec (dct where it is left out) and the required keys files, which name
    the files the command reads. Every key and value is checked before any
    such file is read.
    """
    fields = [f.name for f in dataclasses.fields(cls)]
    cfg_json = _block(read_json(path), f"{what} config {path}", [*fields, "unitary", *files],
                      (*files, "m_list"))
    block = _block(cfg_json.get("recovery", {}), "recovery",
                   [f.name for f in dataclasses.fields(recovery.RecoveryConfig)])
    rec = _build(recovery.RecoveryConfig, block)
    check_unitary_spec(cfg_json.setdefault("unitary", "dct"))
    return cfg_json, _build(cls, {**cfg_json, "recovery": rec})


def cmd_phase(args) -> None:
    cfg_json, cfg = _load_config(args.config, harness.PhaseConfig, "phase",
                                 ("inner_weights", "w_high", "w_low"))
    inner = cfg_json["inner_weights"]
    if not isinstance(inner, list):
        raise DomainError(f"inner_weights must be a list of file paths, got {inner!r}")
    paths = ([_path(p, "each inner_weights entry") for p in inner]
             + [_path(cfg_json[key], key) for key in ("w_high", "w_low")])
    *inner, w_high, w_low = [gnn.load_weight(p) for p in paths]
    u = resolve_unitary(cfg_json["unitary"], w_high.shape[0])
    records = harness.run_phase_portrait(inner, w_high, w_low, cfg, u, args.seed)
    csv_path = os.path.join(args.out_dir, "phase.csv")
    harness.emit_csv(records, csv_path)
    grid = harness.phase_success_grid(records, cfg.betas, cfg.m_list)
    # The grid's rows follow cfg.betas, and so do their labels.
    cohs = {r["beta"]: r["coherence_heuristic"] for r in records}
    harness.emit_svg_heatmap(
        grid,
        os.path.join(args.out_dir, "phase.svg"),
        row_labels=[f"a={cohs[beta]:.3f}" for beta in cfg.betas],
        col_labels=[str(m) for m in cfg.m_list],
        title="success fraction (white = all trials recovered)",
    )
    print(f"wrote {csv_path}")


def cmd_sweep(args) -> None:
    cfg_json, cfg = _load_config(args.config, harness.SweepConfig, "sweep",
                                 ("models", "test_data"))
    if not isinstance(cfg_json["models"], dict) or not cfg_json["models"]:
        raise DomainError("a sweep config needs at least one entry in \"models\"")
    test_spec = _block(cfg_json["test_data"], "test_data", required=("kind",))
    kind = test_spec["kind"]
    if kind not in ("synth", "idx"):
        raise DomainError(f"unknown test_data kind {kind!r} (expected synth or idx)")
    keys = ("kind", "k_true", "count", "seed") if kind == "synth" else ("kind", "images")
    _block(test_spec, "test_data", keys, keys)
    for name, path in cfg_json["models"].items():
        _path(path, f"model {name!r}")
    if kind == "idx":
        samples = training.load_idx(_path(test_spec["images"], "test_data images"))
    else:
        # synth_dataset checks k_true <= n once the first model gives n.
        check_counts(k_true=test_spec["k_true"], count=test_spec["count"])
        check_number("test_data seed", test_spec["seed"], 0, integer=True)
    (name, path), *rest = cfg_json["models"].items()
    models = [(name, training.load_vae(path))]
    n = models[0][1].decoder.ambient_dim
    # The first model gives n; the grid, the unitary and the test data are
    # checked before the rest load.
    harness.check_grid(cfg.model, cfg.m_list, n)
    u = resolve_unitary(cfg_json["unitary"], n)
    if kind == "synth":
        samples = training.synth_dataset(
            n, test_spec["k_true"], test_spec["count"], test_spec["seed"]
        )
    harness.check_test_data(*samples.shape, models)
    models += [(name, training.load_vae(path)) for name, path in rest]
    records, summaries = harness.run_measurement_sweep(models, samples, cfg, u, args.seed)
    harness.emit_csv(records, os.path.join(args.out_dir, "sweep.csv"))
    harness.emit_csv(summaries, os.path.join(args.out_dir, "sweep_summary.csv"))
    series = []
    for name, _ in models:
        pts = [(s["m"], s["geo_mean_rre"]) for s in summaries if s["model"] == name]
        series.append({"label": name, "x": [p[0] for p in pts], "y": [p[1] for p in pts]})
    harness.emit_svg_scatter(series, os.path.join(args.out_dir, "sweep.svg"),
                             title="geometric mean rre vs m (log-y)")
    print(f"wrote {os.path.join(args.out_dir, 'sweep.csv')}")


def cmd_rip(args) -> None:
    cfg = _build(harness.RipConfig, vars(args))
    g = gnn.load_network(args.weights)
    u = resolve_unitary(args.unitary, g.ambient_dim)
    records, summaries = harness.run_rip_check(g, cfg, u, args.seed)
    harness.emit_csv(records, os.path.join(args.out_dir, "rip.csv"))
    harness.emit_csv(summaries, os.path.join(args.out_dir, "rip_summary.csv"))
    print(f"wrote {os.path.join(args.out_dir, 'rip.csv')}")


def cmd_subspace_rip(args) -> None:
    cfg = _build(harness.SubspaceRipConfig, vars(args))
    u = resolve_unitary(args.unitary, cfg.n)
    records, summaries, fit = harness.run_subspace_rip(cfg, u, args.seed)
    harness.emit_csv(records, os.path.join(args.out_dir, "subspace_rip.csv"))
    harness.emit_csv(summaries, os.path.join(args.out_dir, "subspace_rip_summary.csv"))
    _print_json(fit)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gcs", description=__doc__)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; every command runs in one thread")
    p.add_argument("--out-dir", default="out")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coherence", help="coherence report for a weight file")
    c.add_argument("--weights", required=True)
    c.add_argument("--unitary", type=check_unitary_spec, default="dct")
    c.add_argument("--mc-samples", type=int, default=10000)
    c.set_defaults(fn=cmd_coherence)

    t = sub.add_parser("train", help="train a small VAE")
    t.add_argument("--data", default="synth", help="synth | idx:<images> (IDX images only)")
    t.add_argument("--arch", type=_ints, required=True, help="comma widths, e.g. 8,32,64")
    t.add_argument("--regularized", action="store_true")
    _config_flags(t, training.TrainConfig)
    t.add_argument("--unitary", type=check_unitary_spec, default="dct")
    t.add_argument("--synth-count", dest="synth_count", type=int, default=2000)
    t.add_argument("--synth-k", dest="synth_k", type=int, default=4)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    r = sub.add_parser("recover", help="recover a random in-range signal")
    r.add_argument("--weights", required=True)
    r.add_argument("--unitary", type=check_unitary_spec, default="dct")
    r.add_argument("--model", default="fixed", choices=list(sampling.MIN_M))
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--noise", type=float, default=0.0,
                   help="sigma of the Gaussian noise on each real measurement: "
                        "||eta|| ~ sigma*sqrt(2|J|) under a complex U")
    _config_flags(r, recovery.RecoveryConfig)
    r.set_defaults(fn=cmd_recover)

    ph = sub.add_parser("phase", help="phase portrait over (coherence, m)")
    ph.add_argument("--config", required=True)
    ph.set_defaults(fn=cmd_phase)

    sw = sub.add_parser("sweep", help="measurement sweep over trained models")
    sw.add_argument("--config", required=True)
    sw.set_defaults(fn=cmd_sweep)

    ri = sub.add_parser("rip", help="Monte-Carlo RIP check over sampled chords")
    ri.add_argument("--weights", required=True)
    ri.add_argument("--unitary", type=check_unitary_spec, default="dft")
    _config_flags(ri, harness.RipConfig)
    ri.set_defaults(fn=cmd_rip)

    sr = sub.add_parser("subspace-rip", help="exact subspace RIP concentration")
    sr.add_argument("--unitary", type=check_unitary_spec, default="dft")
    _config_flags(sr, harness.SubspaceRipConfig)
    sr.set_defaults(fn=cmd_subspace_rip)

    return p


def main(argv=None) -> int:
    try:
        # Inside the try: a list flag's entries and a --unitary name are
        # checked as they are parsed.
        args = build_parser().parse_args(argv)
        check_number("--seed", args.seed, 0, integer=True)  # numpy takes no negative seed
        # An output directory that cannot be made, or a train output file
        # that names a directory, fails here, before any input is read; the
        # directory is made at the first write.
        if args.command == "train":
            check_out_dir(os.path.dirname(os.path.abspath(args.out)))
            for path in (args.out, _decoder_path(args.out)):
                if os.path.isdir(path):
                    raise IsADirectoryError(f"cannot write to {path}: it is a directory")
        elif args.command in ("phase", "sweep", "rip", "subspace-rip"):
            check_out_dir(args.out_dir)
        args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails inside the try
        return 0
    except BrokenPipeError:
        # The reader closed stdout (`gcs ... | head`): leave quietly, with
        # stdout on devnull so that the interpreter's last flush raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GcsError, OSError) as e:
        print(f"gcs: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
