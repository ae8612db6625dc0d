"""What the benchmark wraps in gcs, and the per-layer metrics it derives.

The table below lists every binding a caller looks up, in the module where it
is looked up. ``from .sampling import apply`` in gnn means gnn calls
``gcs.gnn.apply``, so wrapping only ``gcs.sampling.apply`` would miss it.
Calls made *inside* the defining module (``sample_fixed`` calling
``derive_rng``) are left alone, so a seed drawn inside a sampler counts as
sampler time.

``linops`` and ``errors`` are not wrapped: in these workloads linops only
loads and saves weight files and takes one thin QR per network (inside the
cli and coherence spans), and errors holds exception classes that are never
raised.
"""

from __future__ import annotations

import statistics
import threading
import time

from tracer import Patcher, Tracer, span_self_times

# (module, attribute, metric name); spans are recorded one per call.
SPANS = [
    ("harness", "recover", "recovery.recover"),
    ("harness", "run_phase_portrait", "harness.run_phase_portrait"),
    ("harness", "run_measurement_sweep", "harness.run_measurement_sweep"),
    ("harness", "run_rip_check", "harness.run_rip_check"),
    ("harness", "emit_csv", "harness.emit_csv"),
    ("harness", "network_coherence_heuristic", "coherence.network_coherence_heuristic"),
    ("coherence", "network_coherence_heuristic", "coherence.network_coherence_heuristic"),
    ("coherence", "chord_coherence_mc", "coherence.chord_coherence_mc"),
    ("coherence", "coherence_report", "coherence.coherence_report"),
    ("training", "train_vae", "training.train_vae"),
    ("training", "synth_dataset", "training.synth_dataset"),
    ("training", "save_vae", "training.save_vae"),
    ("training", "load_vae", "training.load_vae"),
    ("gnn", "save_network", "gnn.save_network"),
    ("gnn", "load_network", "gnn.load_network"),
    ("transforms", "dct2_operator", "transforms.dct2_operator"),
]

# Hot inner calls, aggregated per enclosing span.
HOT = [
    ("recovery", "objective_value_grad", "gnn.objective_value_grad"),
    ("gnn", "objective_value_grad", "gnn.objective_value_grad"),
    ("recovery", "forward", "gnn.forward"),
    ("harness", "forward", "gnn.forward"),
    ("coherence", "forward", "gnn.forward"),
    ("gnn", "forward", "gnn.forward"),
    ("gnn", "apply", "sampling.apply"),
    ("recovery", "apply", "sampling.apply"),
    ("harness", "apply", "sampling.apply"),
    ("sampling", "apply", "sampling.apply"),
    ("gnn", "apply_adjoint", "sampling.apply_adjoint"),
    ("sampling", "apply_adjoint", "sampling.apply_adjoint"),
    ("harness", "sample_fixed", "sampling.sample"),
    ("harness", "sample_bernoulli", "sampling.sample"),
    ("sampling", "sample_fixed", "sampling.sample"),
    ("sampling", "sample_bernoulli", "sampling.sample"),
    ("harness", "derive_rng", "sampling.seed"),
    ("harness", "spawn_seed", "sampling.seed"),
    ("recovery", "derive_rng", "sampling.seed"),
    ("coherence", "derive_rng", "sampling.seed"),
    ("training", "derive_rng", "sampling.seed"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "regularizer", "coherence.regularizer"),
]

MODULES = ["cli", "harness", "recovery", "gnn", "sampling", "coherence", "training", "transforms"]
SUBCOMMANDS = ["phase", "sweep", "train", "coherence", "rip"]


def _apply_counts(a, x):
    """Computed bytes gathered and flops of one ``sampling.apply`` call."""
    u = a.base.matrix
    rows = a.num_rows
    flops_per_mac = 8 if u.dtype.kind == "c" else 2
    return rows * u.shape[1] * u.itemsize, rows * u.shape[1] * flops_per_mac


def install_tracer(tracer: Tracer, gcs) -> None:
    for mod, attr, name in SPANS:
        tracer.wrap_span(getattr(gcs, mod), attr, name)
    for mod, attr, name in HOT:
        extra = _apply_counts if name == "sampling.apply" else None
        tracer.wrap_hot(getattr(gcs, mod), attr, name, extra)
    harness = gcs.harness
    run_indexed = harness.run_indexed

    def traced_run_indexed(fn, count, threads=1):
        span, frame = tracer.open_span("harness.run_indexed")
        job = tracer.span("harness.job", fn)
        try:
            return run_indexed(lambda i: tracer.run_in(span.id, job, i), count, threads)
        finally:
            tracer.close_span(span, frame)

    tracer.patcher.set(harness, "run_indexed", traced_run_indexed)


class TrialClock:
    """One clock pair per trial, cheap enough for the untraced run.

    kind "recover" times each ``harness.recover`` call and keeps its
    iteration count, termination and failed restarts; kind "jobs" times each
    job that ``harness.run_indexed`` runs. Each trial gets its wall time and
    its thread CPU time. Under ``--threads 2`` a trial's wall time also holds
    the other worker's turns on the interpreter lock; its CPU time does not.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.times: list[float] = []
        self.cpu_times: list[float] = []
        self.results: list[tuple] = []  # (iterations, termination, failed_restarts)
        self._lock = threading.Lock()

    def install(self, patcher: Patcher, gcs) -> None:
        harness = gcs.harness
        clock, cpu = time.perf_counter, time.thread_time
        if self.kind == "recover":
            recover = harness.recover

            def timed_recover(*args, **kwargs):
                t0, c0 = clock(), cpu()
                res = recover(*args, **kwargs)
                dt, dc = clock() - t0, cpu() - c0
                with self._lock:
                    self.times.append(dt)
                    self.cpu_times.append(dc)
                    self.results.append((res.iterations, res.termination, res.failed_restarts))
                return res

            patcher.set(harness, "recover", timed_recover)
        else:
            run_indexed = harness.run_indexed

            def timed_run_indexed(fn, count, threads=1):
                def job(i):
                    t0, c0 = clock(), cpu()
                    out = fn(i)
                    dt, dc = clock() - t0, cpu() - c0
                    with self._lock:
                        self.times.append(dt)
                        self.cpu_times.append(dc)
                    return out

                return run_indexed(job, count, threads)

            patcher.set(harness, "run_indexed", timed_run_indexed)


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, clock: TrialClock, untraced_clock: TrialClock) -> dict:
    """Per-layer figures of one traced execution, keyed by metric name.

    ``untraced_clock`` holds the same trials timed without tracing; it gives
    ``recovery.us_per_iter``, so that figure carries no tracing overhead.
    """
    spans = tracer.spans
    hot = tracer.hot_stats()
    self_times = span_self_times(spans)

    def span_total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def hot_sum(name, field="total_s"):
        return sum(getattr(r, field) for (n, _), r in hot.items() if n == name)

    def hot_calls(name):
        return hot_sum(name, "calls")

    def per_call_us(name):
        calls = hot_calls(name)
        return hot_sum(name) / calls * 1e6 if calls else 0.0

    recover_ids = {s.id for s in spans if s.name == "recovery.recover"}
    adam_iters = sum(r.calls for (n, sid), r in hot.items()
                     if n == "gnn.objective_value_grad" and sid in recover_ids)
    iters = [r[0] for r in clock.results]
    m = {
        "recovery.recover.calls": len(recover_ids),
        "recovery.adam_iters": adam_iters,
        "recovery.iters_p50": quantile(iters, 50),
        "recovery.iters_p95": quantile(iters, 95),
        "recovery.max_iters_share": (sum(r[1] == "max_iters" for r in clock.results) / len(iters)
                                     if iters else 0.0),
        "recovery.failed_restarts": sum(r[2] for r in clock.results),
        "recovery.us_per_iter": (sum(untraced_clock.times) / adam_iters * 1e6
                                 if adam_iters and clock.kind == "recover" else 0.0),
        "gnn.objective_value_grad.calls": hot_calls("gnn.objective_value_grad"),
        "gnn.objective_value_grad.us_per_call": per_call_us("gnn.objective_value_grad"),
        "gnn.forward.calls": hot_calls("gnn.forward"),
        "gnn.forward.s": hot_sum("gnn.forward"),
        "sampling.apply.calls": hot_calls("sampling.apply"),
        "sampling.apply.us_per_call": per_call_us("sampling.apply"),
        "sampling.apply_adjoint.calls": hot_calls("sampling.apply_adjoint"),
        "sampling.apply_adjoint.us_per_call": per_call_us("sampling.apply_adjoint"),
        "sampling.sample.us_per_call": per_call_us("sampling.sample"),
        "sampling.seed.us_per_call": per_call_us("sampling.seed"),
        "coherence.chord_coherence_mc.s": span_total("coherence.chord_coherence_mc"),
        "coherence.network_coherence_heuristic.s": span_total("coherence.network_coherence_heuristic"),
        "coherence.regularizer.calls": hot_calls("coherence.regularizer"),
        "coherence.regularizer.us_per_call": per_call_us("coherence.regularizer"),
        "training.train_vae.s": span_total("training.train_vae"),
        "training.adam_step.calls": hot_calls("training.adam_step"),
        "training.adam_step.us_per_call": per_call_us("training.adam_step"),
        "harness.emit_csv.s": span_total("harness.emit_csv"),
    }
    apply_calls = m["sampling.apply.calls"]
    apply_bytes = sum(r.extra[0] for (n, _), r in hot.items() if n == "sampling.apply")
    apply_flops = sum(r.extra[1] for (n, _), r in hot.items() if n == "sampling.apply")
    m["sampling.apply.bytes_computed"] = apply_bytes / apply_calls if apply_calls else 0.0
    m["sampling.apply.flops_computed"] = apply_flops / apply_calls if apply_calls else 0.0
    steps = m["training.adam_step.calls"]
    m["training.step_ms"] = m["training.train_vae.s"] / steps * 1e3 if steps else 0.0

    jobs = [s for s in spans if s.name == "harness.job"]
    m["harness.trials"] = len(jobs)
    m["harness.busy_s"] = sum(s.end - s.start for s in jobs)

    for sub in SUBCOMMANDS:
        m[f"cli.main.{sub}.s"] = span_total(f"cli.main.{sub}")

    module_self = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module_self[s.name.split(".")[0]] += self_times[s.id]
    for (name, _), r in hot.items():
        module_self[name.split(".")[0]] += r.self_s
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]
    # Under --threads 2 self times add up to more than the wall time, so the
    # share is taken of all traced self time.
    core = module_self["recovery"] + module_self["gnn"] + module_self["sampling"]
    total = sum(module_self.values())
    m["trace.self_share.recovery_gnn_sampling"] = core / total if total else 0.0
    return m
