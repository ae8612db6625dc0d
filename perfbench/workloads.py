"""The benchmark's workloads: inputs made from the seed, the CLI steps each
runs, and how each step's outputs are read back and checked.

Every workload drives ``gcs.cli.main`` in-process. Sizes follow ``seconds``
through a fixed formula, never through a clock, so the work done for a given
(seed, seconds) pair is always the same and the layer counts repeat exactly.
Trial-indexed outputs (phase, sweep and RIP rows, loss-trace epochs) derive
their randomness from (seed, cell, trial), so a run with fewer trials or
epochs than a reference is checked against the overlapping prefix.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUCCESS_RRE = 1e-5  # the paper's success threshold, as in gcs.recovery
RIP_DELTA = 0.25
RIP_M = [100, 200, 400]
MC_SAMPLES = 40000
ARCH_784 = [20, 200, 784]


def _close(a: float, b: float) -> bool:
    """Agreement with a reference value recorded on the same code path."""
    return abs(a - b) <= 1e-9 + 1e-6 * abs(b)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Workload:
    """One benchmark workload. Subclasses fill in the five hooks below."""

    name = ""
    n = 64  # signal dimension, for the set-up's unitary
    pool_threads = 0  # >1: the traced run also executes at this --threads
    trial_clock = "recover"  # "recover": around harness.recover; "jobs": around run_indexed jobs

    def params(self, seconds: float) -> dict:
        raise NotImplementedError

    def setup(self, gcs, seed: int, params: dict, work: str) -> None:
        """Load or generate the inputs and build the unitary, as a user would."""
        raise NotImplementedError

    def steps(self, seed: int, params: dict, work: str, out: str, threads: int) -> list:
        """[(label, argv)] for gcs.cli.main, in order; outputs go under ``out``."""
        raise NotImplementedError

    def collect(self, params: dict, out: str, stdout: dict) -> dict:
        """Outputs of a finished execution, in the reference file's format."""
        raise NotImplementedError

    def expected_trials(self, params: dict) -> int:
        raise NotImplementedError

    # -- shared checking ----------------------------------------------------
    def check(self, params: dict, outputs: dict, reference: dict | None):
        """Count operations attempted and failed; return (attempted, failed, notes).

        An operation fails when its step raised, its value is nonfinite, or it
        disagrees with the reference beyond ``_close``.
        """
        notes = []
        trials = outputs.get("trials", {})
        ref_trials = (reference or {}).get("outputs", {}).get("trials", {})
        attempted = self.expected_trials(params)
        failed = attempted - len(trials)
        if failed:
            notes.append(f"{failed} trials missing")
        nonfinite = mismatched = 0
        for key, (ok, value) in trials.items():
            ref = ref_trials.get(key)
            if not math.isfinite(value):
                nonfinite += 1
            elif ref is not None and (ref[0] != ok or not _close(value, ref[1])):
                mismatched += 1
        failed += nonfinite + mismatched
        if nonfinite:
            notes.append(f"{nonfinite} trials gave a nonfinite value")
        if mismatched:
            notes.append(f"{mismatched} trials disagree with the reference")
        a, f, n = self.check_extra(params, outputs, reference)
        return attempted + a, failed + f, notes + n

    def check_extra(self, params, outputs, reference):
        return 0, 0, []

    @staticmethod
    def success_frac(outputs: dict) -> float:
        trials = outputs.get("trials", {})
        return sum(ok for ok, _ in trials.values()) / max(1, len(trials))


class PhaseDesk(Workload):
    name = "phase-desk"

    def params(self, seconds):
        return {"trials": max(1, round(seconds * 8 / 30))}

    def _config(self):
        with open(os.path.join(ROOT, "configs", "phase_desk.json")) as f:
            return json.load(f)

    def setup(self, gcs, seed, params, work):
        cfg = self._config()
        cfg["inner_weights"] = [os.path.join(ROOT, p) for p in cfg["inner_weights"]]
        cfg["w_high"] = os.path.join(ROOT, cfg["w_high"])
        cfg["w_low"] = os.path.join(ROOT, cfg["w_low"])
        cfg["trials"] = params["trials"]
        for p in cfg["inner_weights"]:
            gcs.linops.load_matrix(p)
        gcs.linops.load_matrix(cfg["w_low"])
        n = gcs.linops.load_matrix(cfg["w_high"]).shape[0]
        gcs.cli.resolve_unitary(cfg.get("unitary", "dct"), n)
        _write_json(os.path.join(work, "phase.json"), cfg)

    def steps(self, seed, params, work, out, threads):
        return [("phase", ["--seed", str(seed), "--threads", str(threads),
                           "--out-dir", out,
                           "phase", "--config", os.path.join(work, "phase.json")])]

    def collect(self, params, out, stdout):
        trials = {}
        path = os.path.join(out, "phase.csv")
        if os.path.exists(path):
            for r in _read_rows(path):
                trials[f"{r['beta']}|{r['m']}|{r['trial']}"] = [int(r["success"]), float(r["rre"])]
        return {"trials": trials}

    def expected_trials(self, params):
        cfg = self._config()
        return len(cfg["betas"]) * len(cfg["m_list"]) * params["trials"]


class SweepDesk(Workload):
    name = "sweep-desk"
    pool_threads = 2

    def params(self, seconds):
        return {"trials": max(1, round(seconds / 3))}

    def _config(self):
        with open(os.path.join(ROOT, "configs", "sweep_desk.json")) as f:
            return json.load(f)

    def setup(self, gcs, seed, params, work):
        cfg = self._config()
        cfg["models"] = {k: os.path.join(ROOT, p) for k, p in cfg["models"].items()}
        cfg["trials"] = params["trials"]
        models = [gcs.training.load_vae(p) for p in cfg["models"].values()]
        n = models[0].decoder.ambient_dim
        spec = cfg["test_data"]
        gcs.training.synth_dataset(n, spec["k_true"], spec["count"], spec["seed"])
        gcs.cli.resolve_unitary(cfg.get("unitary", "dct"), n)
        _write_json(os.path.join(work, "sweep.json"), cfg)

    def steps(self, seed, params, work, out, threads):
        return [("sweep", ["--seed", str(seed), "--threads", str(threads),
                           "--out-dir", out,
                           "sweep", "--config", os.path.join(work, "sweep.json")])]

    def collect(self, params, out, stdout):
        trials = {}
        path = os.path.join(out, "sweep.csv")
        if os.path.exists(path):
            for r in _read_rows(path):
                rre = float(r["rre"])
                trials[f"{r['model']}|{r['m']}|{r['trial']}"] = [int(rre < SUCCESS_RRE), rre]
        return {"trials": trials}

    def expected_trials(self, params):
        cfg = self._config()
        return len(cfg["models"]) * len(cfg["m_list"]) * params["trials"]


class TrainCoherence784(Workload):
    """Two VAE trainings, a coherence report and a RIP check at n = 784.

    A "trial" here is one RIP chord trial (a run_indexed job of ``gcs rip``),
    and it succeeds when the sampled operator's deviation stays below delta.
    """

    name = "train-coherence-784"
    n = 784
    trial_clock = "jobs"

    def params(self, seconds):
        return {"epochs": max(1, round(seconds / 6)), "rip_trials": max(2, round(seconds * 10)),
                "mc_samples": MC_SAMPLES}

    def setup(self, gcs, seed, params, work):
        # Bias-free 20 -> 200 -> 784 ReLU network with Gaussian layers.
        rng = np.random.default_rng([seed, 784])
        k, h, n = ARCH_784
        net = gcs.gnn.GenerativeNetwork(weights=[
            rng.standard_normal((h, k)) / math.sqrt(k),
            rng.standard_normal((n, h)) / math.sqrt(h),
        ])
        gcs.gnn.save_network(net, os.path.join(work, "rip_net.json"))
        gcs.cli.resolve_unitary("dct", n)

    def steps(self, seed, params, work, out, threads):
        common = ["--seed", str(seed), "--threads", str(threads), "--out-dir", out]
        arch = ",".join(map(str, ARCH_784))
        train = ["train", "--data", "synth", "--arch", arch, "--epochs", str(params["epochs"])]
        return [
            ("train", common + train + ["--out", os.path.join(out, "unreg.json")]),
            ("train", common + train + ["--regularized", "--unitary", "dct",
                                        "--out", os.path.join(out, "reg.json")]),
            ("coherence", common + ["coherence", "--weights", os.path.join(out, "reg.decoder.json"),
                                    "--unitary", "dct", "--mc-samples", str(params["mc_samples"])]),
            ("rip", common + ["rip", "--weights", os.path.join(work, "rip_net.json"),
                              "--unitary", "dct", "--m-list", ",".join(map(str, RIP_M)),
                              "--delta", str(RIP_DELTA), "--chord-samples", "200",
                              "--trials", str(params["rip_trials"]), "--model", "bernoulli"]),
        ]

    def collect(self, params, out, stdout):
        result = {"trials": {}}
        for name in ("unreg", "reg"):
            path = os.path.join(out, f"{name}.json")
            if os.path.exists(path):
                with open(path) as f:
                    result[f"loss_{name}"] = json.load(f)["loss_trace"]
        text = stdout.get("coherence", "")
        if text.strip():
            report = json.loads(text)
            result["coherence"] = {k: report[k] for k in ("alpha_heuristic", "alpha_mc")}
        path = os.path.join(out, "rip.csv")
        if os.path.exists(path):
            for r in _read_rows(path):
                result["trials"][f"{r['m']}|{r['trial']}"] = [1 - int(r["exceed"]), float(r["deviation"])]
        return result

    def expected_trials(self, params):
        return len(RIP_M) * params["rip_trials"]

    def check_extra(self, params, outputs, reference):
        ref = (reference or {}).get("outputs", {})
        ref_params = (reference or {}).get("params", {})
        same_decoder = all(ref_params.get(k) == params[k] for k in ("epochs", "mc_samples"))
        attempted, failed, notes = 3, 0, []
        for name in ("unreg", "reg"):
            trace = outputs.get(f"loss_{name}")
            ref_trace = ref.get(f"loss_{name}")
            if not trace or len(trace) != params["epochs"] or not all(map(math.isfinite, trace)):
                failed += 1
                notes.append(f"training {name}: missing or nonfinite loss trace")
            elif ref_trace and not all(_close(a, b) for a, b in zip(trace, ref_trace)):
                failed += 1
                notes.append(f"training {name}: loss trace disagrees with the reference")
        coh = outputs.get("coherence")
        if coh is None or not all(map(math.isfinite, coh.values())):
            failed += 1
            notes.append("coherence: missing or nonfinite")
        elif same_decoder and "coherence" in ref and not all(
            _close(coh[k], ref["coherence"][k]) for k in coh
        ):
            failed += 1
            notes.append("coherence: disagrees with the reference")
        return attempted, failed, notes


WORKLOADS = {w.name: w for w in (PhaseDesk(), SweepDesk(), TrainCoherence784())}
