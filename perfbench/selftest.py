"""Checks of the benchmark itself (not of gcs). Run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the default test collection: the short traced
runs below take about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from instrument import HOT, SPANS, TrialClock, install_tracer, layer_metrics  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

EXACT = ["recovery.adam_iters", "gnn.objective_value_grad.calls", "harness.trials"]


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_tracing_restores_every_binding():
    gcs = run.import_gcs()
    targets = [(getattr(gcs, m), a) for m, a, _ in SPANS + HOT]
    targets += [(gcs.harness, "run_indexed"), (gcs.harness, "recover")]
    before = {(id(mod), attr): getattr(mod, attr) for mod, attr in targets}
    patcher, tracer = Patcher(), Tracer()
    TrialClock("recover").install(patcher, gcs)
    TrialClock("jobs").install(patcher, gcs)
    install_tracer(tracer, gcs)
    for mod, attr in targets:
        assert getattr(mod, attr) is not before[(id(mod), attr)], attr
    tracer.restore()
    patcher.restore()
    for mod, attr in targets:
        assert getattr(mod, attr) is before[(id(mod), attr)], attr


def _traced_counts(workload_name: str, params: dict, threads: int) -> dict:
    workload = WORKLOADS[workload_name]
    work = tempfile.mkdtemp()
    try:
        gcs, _, _ = run.setup(workload, 3, params, work)
        plain = run.execute(gcs, workload, 3, params, work, threads)
        tracer = Tracer()
        traced = run.execute(gcs, workload, 3, params, work, threads, tracer)
        assert not plain.errors and not traced.errors
        assert workload.check(params, traced.outputs, None)[1] == 0
        metrics = layer_metrics(tracer, traced.clock, plain.clock)
        return {name: metrics[name] for name in EXACT}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_exact_counts_repeat():
    first = _traced_counts("phase-desk", {"trials": 1}, 1)
    second = _traced_counts("phase-desk", {"trials": 1}, 1)
    assert first == second
    assert first["recovery.adam_iters"] == first["gnn.objective_value_grad.calls"] > 0
    assert first["harness.trials"] == 30


def test_exact_counts_repeat_across_threads():
    two = _traced_counts("sweep-desk", {"trials": 1}, 2)
    one = _traced_counts("sweep-desk", {"trials": 1}, 1)
    assert two == one
    assert two["harness.trials"] == 10
