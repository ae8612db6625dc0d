"""Benchmark for gcs: one workload run per call, driving ``gcs.cli.main``
in-process.

    python3 perfbench/run.py --workload phase-desk --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a separate traced execution. The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
``setup_s`` and ``wall_s`` are scaled to a reference host speed (see
hostspeed.py). ``--record`` also writes the reference outputs for the seed,
from a ``--threads 1`` execution. See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, so a run uses at most --threads threads (two at
# most, one per core of the reference machine).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types

import numpy as np

from hostspeed import HostSpeed
from instrument import TrialClock, install_tracer, layer_metrics, quantile
from tracer import Patcher, Tracer
from workloads import ROOT, WORKLOADS

SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 15  # at least; more until SETUP_MIN_S of set-up has passed
SETUP_MIN_S = 1.5
GCS_MODULES = ["cli", "harness", "recovery", "gnn", "sampling", "coherence", "training",
               "transforms", "linops"]
DENSE_SIZES = {64: 2000, 784: 200, 4096: 10}  # n -> calls timed
DENSE_BLOCK = 8  # columns of the fixed block X in U @ X


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_gcs():
    """Import gcs afresh from src/ and return its modules as a namespace."""
    for name in [n for n in sys.modules if n == "gcs" or n.startswith("gcs.")]:
        del sys.modules[name]
    importlib.import_module("gcs.cli")
    return types.SimpleNamespace(**{m: sys.modules[f"gcs.{m}"] for m in GCS_MODULES})


def setup(workload, seed: int, params: dict, work: str):
    """Time repeated set-ups (import, inputs, unitary); keep the last one."""
    times, dct_times = [], []
    gcs = None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 100):
        t0 = time.perf_counter()
        gcs = import_gcs()
        workload.setup(gcs, seed, params, work)
        times.append(time.perf_counter() - t0)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        gcs.transforms.dct2_operator(workload.n)
        dct_times.append(time.perf_counter() - t0)
    return gcs, statistics.median(times), statistics.median(dct_times)


# ---------------------------------------------------------------------------
# one execution of a workload
# ---------------------------------------------------------------------------


class Execution(types.SimpleNamespace):
    """wall, clock, outputs and the errors of failed steps."""


def execute(gcs, workload, seed, params, work, threads, tracer=None) -> Execution:
    out = tempfile.mkdtemp(prefix="out-", dir=work)
    steps = workload.steps(seed, params, work, out, threads)
    clock = TrialClock(workload.trial_clock)
    patcher = Patcher()
    clock.install(patcher, gcs)
    if tracer is not None:
        install_tracer(tracer, gcs)
    stdout, errors = {}, []
    t0 = time.perf_counter()
    try:
        for label, argv in steps:
            buf = io.StringIO()
            span = tracer.open_span(f"cli.main.{label}") if tracer is not None else None
            try:
                with contextlib.redirect_stdout(buf):
                    code = gcs.cli.main(argv)
                if code != 0:
                    errors.append(f"{label}: exit code {code}")
            except Exception:  # a failing step is counted, and the run goes on
                errors.append(f"{label}: {traceback.format_exc()}")
            finally:
                if span is not None:
                    tracer.close_span(*span)
            stdout[label] = stdout.get(label, "") + buf.getvalue()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
        patcher.restore()
    outputs = workload.collect(params, out, stdout)
    return Execution(wall=wall, clock=clock, outputs=outputs, errors=errors)


# ---------------------------------------------------------------------------
# correctness reference
# ---------------------------------------------------------------------------


def reference_path(workload, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload.name, f"seed-{seed}.json")


def load_reference(workload, seed: int):
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


class Tally:
    """Operations attempted and failed over every execution of a run."""

    def __init__(self, workload, params, reference):
        self.workload, self.params, self.reference = workload, params, reference
        self.attempted, self.failed, self.notes = 0, 0, []

    def add(self, ex: Execution) -> None:
        attempted, failed, notes = self.workload.check(self.params, ex.outputs, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.notes += notes
        for err in ex.errors:
            print(f"step failed: {err}", file=sys.stderr)


# ---------------------------------------------------------------------------
# manifest and layer probes
# ---------------------------------------------------------------------------


def git_revision():
    """HEAD of a git checkout, read from .git; None outside one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gcs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def manifest(args, workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "threads": 1,
        "pool_threads": workload.pool_threads if args.trace else 0,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def dense_apply_probes(gcs) -> dict:
    """Median time of UnitaryOperator.apply on a fixed n x 8 block, and its
    computed flops and bytes (U read once, X read and U X written)."""
    out = {}
    rng = np.random.default_rng(0)
    for n, calls in DENSE_SIZES.items():
        op = gcs.transforms.dct2_operator(n)
        x = rng.standard_normal((n, DENSE_BLOCK))
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            op.apply(x)
            times.append(time.perf_counter() - t0)
        del op  # the n = 4096 matrix is 128 MiB
        out[f"transforms.dense_apply_us.n{n}"] = statistics.median(times) * 1e6
        out[f"transforms.dense_apply_flops_computed.n{n}"] = 2.0 * n * n * DENSE_BLOCK
        out[f"transforms.dense_apply_bytes_computed.n{n}"] = 8.0 * (n * n + 2 * n * DENSE_BLOCK)
    return out


def chord_mc_counts(params) -> dict:
    """Computed flops and bytes of the chord Monte-Carlo product U @ chords."""
    samples = params.get("mc_samples", 0)
    if not samples:
        return {"coherence.chord_coherence_mc.flops_computed": 0.0,
                "coherence.chord_coherence_mc.bytes_computed": 0.0}
    n = 784
    chunks = math.ceil(samples / 8192)
    return {"coherence.chord_coherence_mc.flops_computed": 2.0 * n * n * samples,
            "coherence.chord_coherence_mc.bytes_computed": 8.0 * (chunks * n * n + 2 * n * samples)}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true",
                   help="write the reference outputs for this seed from a --threads 1 run")
    return p.parse_args(argv)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    # The traced run executes the workload two or three times, so it runs
    # half the work per execution.
    seconds = args.seconds / 2 if args.trace else args.seconds
    params = workload.params(seconds)
    print("manifest: " + json.dumps(manifest(args, workload), sort_keys=True))
    print("params: " + json.dumps(params, sort_keys=True))

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        reference = None if args.record else load_reference(workload, args.seed)
        if reference is None and not args.record:
            print(f"reference: none for seed {args.seed}; "
                  "checked only for completion and finite values")
        elif reference is not None:
            print(f"reference: {os.path.relpath(reference_path(workload, args.seed), ROOT)}")

        # Host speed is sampled during set-up and the untraced execution only.
        with HostSpeed() as host:
            start = host.mark()
            gcs, setup_s, dct_s = setup(workload, args.seed, params, work)
            setup_factor, _ = host.since(start)
            middle = host.mark()
            ex = execute(gcs, workload, args.seed, params, work, 1)
            wall_factor, handler_s = host.since(middle)
            ex.wall -= handler_s
        print(f"host: kernel {host.kernel_us:.1f} us over {host.samples} samples; "
              f"measured setup_s {setup_s:.6g} s x {setup_factor:.4f}, "
              f"wall_s {ex.wall:.6g} s x {wall_factor:.4f}")
        tally = Tally(workload, params, reference)
        tally.add(ex)
        if args.record:
            if tally.failed:
                raise BenchError(f"refusing to record a failed run: {tally.notes}")
            path = reference_path(workload, args.seed)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                json.dump({"workload": workload.name, "seed": args.seed, "params": params,
                           "threads": 1, "outputs": ex.outputs}, f, sort_keys=True)
            print(f"recorded {os.path.relpath(path, ROOT)}")

        if not args.trace:
            values = {
                "setup_s": setup_s * setup_factor,
                "wall_s": ex.wall * wall_factor,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
                "success_frac": workload.success_frac(ex.outputs),
            }
        else:
            tracer = Tracer()
            traced = execute(gcs, workload, args.seed, params, work, 1, tracer)
            tally.add(traced)
            values = layer_metrics(tracer, traced.clock, ex.clock)
            values["host.kernel_us"] = host.kernel_us
            values["trace_overhead_frac"] = (traced.wall - ex.wall) / ex.wall
            for q in (50, 90):
                values[f"harness.trial_ms_p{q}"] = quantile(ex.clock.times, q) * 1e3
                values[f"harness.trial_cpu_ms_p{q}"] = quantile(ex.clock.cpu_times, q) * 1e3
            values["harness.thread_speedup"] = 0.0
            values["harness.parallel_efficiency"] = 0.0
            if workload.pool_threads > 1:
                # The same trials on the thread pool; also checks that the
                # thread count leaves every output unchanged.
                pool = execute(gcs, workload, args.seed, params, work, workload.pool_threads)
                tally.add(pool)
                values["harness.thread_speedup"] = ex.wall / pool.wall
                values["harness.parallel_efficiency"] = (
                    sum(pool.clock.times) / (pool.wall * workload.pool_threads))
            values["transforms.dct2_operator.s"] = dct_s
            values.update(dense_apply_probes(gcs))
            values.update(chord_mc_counts(params))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for note in tally.notes:
        print(f"check: {note}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def declared_metrics(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "gcs", "cli.py")):
        print(f"perfbench: no gcs package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
