"""Set-up, the timed loop, the traced loop and the result line of run.py."""

import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from tracing import KERNELS, Tracer, installed_wrappers, self_times

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {"setup_s": "s", "main_per_s": "1/s", "aux_per_s": "1/s",
              "peak_rss_mb": "MB"}


def _span(name, key):
    return lambda agg, c: agg.get(name, {}).get(key, 0.0)


def _count(key):
    return lambda agg, c: c.get(key, 0.0)


# Per-layer metrics (--trace 1) as (name, unit, source): source(aggregate,
# counters) is divided by the number of timed units; None marks a value of
# the whole run. Spans are the traced drift functions; counters come from
# the kernel registry and the wrapper hooks in tracing.py.
PER_LAYER = (
    [(f"tape.{op}.{k}", u, _count(f"tape.{op}.{k}"))
     for op in KERNELS for k, u in (("calls", "count"), ("s", "s"),
                                    ("gflop", "GFLOP"))]
    + [("tape.other.calls", "count", _count("tape.other.calls")),
       ("tape.other.s", "s", _count("tape.other.s")),
       ("tape.vjp.calls", "count", _span("tape.vjp", "calls")),
       ("tape.vjp.s", "s", _span("tape.vjp", "s")),
       ("tape.nodes", "count", _count("tape.nodes")),
       ("tape.peak_mb", "MB", None),
       ("models.np_conv2d.calls", "count", _span("models.np_conv2d", "calls")),
       ("models.np_conv2d.rows", "count", _count("models.np_conv2d.rows")),
       ("models.np_conv2d.s", "s", _span("models.np_conv2d", "s")),
       ("models.np_conv2d.gflop", "GFLOP", _count("models.np_conv2d.gflop")),
       ("models.np_dense.calls", "count", _span("models.np_dense", "calls")),
       ("models.np_dense.s", "s", _span("models.np_dense", "s")),
       ("models.sample_filter_index.calls", "count",
        _span("models.sample_filter_index", "calls")),
       ("models.sample_filter_index.s", "s",
        _span("models.sample_filter_index", "s")),
       ("rng.rng_from.calls", "count", _span("rng.rng_from", "calls")),
       ("rng.rng_from.s", "s", _span("rng.rng_from", "s")),
       ("rng.draws.eot", "count", _count("rng.draws.eot")),
       ("rng.draws.square", "count", _count("rng.draws.square")),
       ("rng.draws.inference", "count", _count("rng.draws.inference"))]
    + [(f"losses.{t}_component.{k}", "s", _span(f"losses.{t}_component", k))
       for t in ("ce", "js", "lvjp", "adv") for k in ("s", "self_s")]
    + [(f"training.{f}.s", "s", _span(f"training.{f}", "s"))
       for f in ("optimizer_step", "clip_gradients", "sanitize_gradients")]
    + [("attacks.oracle.calls", "count", _span("attacks.oracle", "calls")),
       ("attacks.oracle.s", "s", _span("attacks.oracle", "s")),
       ("attacks.pgd.s", "s", _span("attacks.pgd", "s")),
       ("attacks.square_attack.s", "s", _span("attacks.square_attack", "s")),
       ("attacks.square_attack.self_s", "s",
        _span("attacks.square_attack", "self_s")),
       ("attacks.square.score_rows", "count",
        _count("attacks.square.score_rows")),
       ("attacks.eot.useful_ratio", "ratio", None)]
    + [(f"diagnostics.{f}.s", "s", _span(f"diagnostics.{f}", "s"))
       for f in ("consensus", "gradient_norm_stats", "loss_landscape")]
    + [("diagnostics.eot_loss_rows.calls", "count",
        _span("diagnostics.eot_loss_rows", "calls")),
       ("diagnostics.eot_loss_rows.rows", "count",
        _count("diagnostics.eot_loss_rows.rows")),
       ("diagnostics.eot_loss_rows.s", "s",
        _span("diagnostics.eot_loss_rows", "s")),
       ("harness.stochastic_predict.calls", "count",
        _span("harness.stochastic_predict", "calls")),
       ("harness.stochastic_predict.s", "s",
        _span("harness.stochastic_predict", "s")),
       ("dtns.load_checkpoint.s", "s", None),
       ("data.generate_synthetic_dataset.s", "s", None),
       ("trace.overhead_s", "s", None)]
)


class Checks:
    """Every check counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, items):
        for label, ok in items:
            self.attempted += 1
            if not ok:
                self.failures.append(label)


def blas_info():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def setup(workload, repeats, checks):
    """Load the context `repeats` times, then run the golden unit as warm-up.

    A load is the fixture read and hash check, the checkpoint load and the
    dataset generation. Returns (context, the golden unit's quality outputs,
    median seconds of one load, seconds of the golden unit).
    """
    loads = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = workloads.load_context()
        loads.append(time.perf_counter() - t0)
    runner = workloads.Runner(workload, ctx, 0)
    t0 = time.perf_counter()
    golden = runner.golden_unit()
    golden_s = time.perf_counter() - t0
    checks.add(golden.checks)
    quality = runner.quality(golden)
    checks.add(workloads.golden_checks(quality, workloads.load_golden(workload)))
    return ctx, quality, statistics.median(loads), golden_s


def _timed_units(runner, seconds, checks, tracer=None):
    results = []
    t_loop = time.perf_counter()
    index = 1
    while not results or time.perf_counter() - t_loop < seconds:
        try:
            res = runner.unit(index, tracer=tracer)
        except Exception:  # a failed unit is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            checks.add([(f"unit {index} completed", False)])
        else:
            checks.add(res.checks)
            results.append(res)
        index += 1
    return results


def _rate(results, stage):
    return [r.work[stage] / r.seconds[stage] for r in results]


def _throughput(results, stage):
    return sum(r.work[stage] for r in results) / sum(r.seconds[stage]
                                                       for r in results)


def end_to_end(results, workload, setup_s):
    """Stage rates pooled over the timed units: total work over total time."""
    return {
        "setup_s": setup_s,
        "main_per_s": _throughput(results, workloads.MAIN_STAGE[workload]),
        "aux_per_s": _throughput(results, workloads.AUX_STAGE[workload]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_stage_table(results, workload):
    """Per stage: pooled rate, then median and quartiles over the units."""
    print(f"{'stage rate':28s} {'pooled':>12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s}  unit")
    for name, stage in workloads.STAGE_RATES[workload]:
        vals = _rate(results, stage)
        q1, q3 = _quartiles(vals)
        print(f"{name:28s} {_throughput(results, stage):12.4f} "
              f"{statistics.median(vals):12.4f} {q1:12.4f} {q3:12.4f}  1/s")
    vals = [r.total_s for r in results]
    q1, q3 = _quartiles(vals)
    print(f"{'unit seconds':28s} {sum(vals) / len(vals):12.4f} "
          f"{statistics.median(vals):12.4f} {q1:12.4f} {q3:12.4f}  s")


def stage_spans(spans):
    """Spans whose outermost ancestor is a benchmark stage (the timed body)."""
    root = []
    for name, _, _, parent in spans:
        root.append(len(root) if parent is None else root[parent])
    keep = {i for i, r in enumerate(root) if spans[r][0].startswith("bench.")}
    remap, out = {}, []
    for i, (name, start, end, parent) in enumerate(spans):
        if i in keep:
            remap[i] = len(out)
            out.append([name, start, end, remap.get(parent)])
    return out


def traced(runner, seconds, checks):
    """Traced set-up pieces, traced golden unit, then traced timed units.

    The tracing overhead is the traced golden unit's time minus that of an
    untraced golden unit run just before, both after set-up's warm-up.
    """
    golden = runner.golden_unit()
    tracer = Tracer()
    with tracer:
        with tracer.span("bench.setup"):
            ctx = workloads.load_context()
        setup_agg = tracer.aggregate()
        traced_runner = workloads.Runner(runner.workload, ctx, runner.seed)
        tracer.reset()
        golden_traced = traced_runner.golden_unit(tracer=tracer)
        overhead_s = golden_traced.total_s - golden.total_s
        checks.add([("traced golden outputs bitwise equal to untraced",
                     golden_traced.fingerprint() == golden.fingerprint())])
        tracer.reset()
        results = _timed_units(traced_runner, seconds, checks, tracer)
    checks.add([("every tracing wrapper restored", not installed_wrappers())])

    spans = stage_spans(tracer.spans)
    agg = self_times(spans)
    n = len(results)
    c = tracer.counters
    run_level = {
        "tape.peak_mb": c["tape.peak_mb"],
        "attacks.eot.useful_ratio": tracer.eot_useful_ratio(),
        "dtns.load_checkpoint.s": setup_agg["dtns.load_checkpoint"]["s"],
        "data.generate_synthetic_dataset.s":
            setup_agg["data.generate_synthetic_dataset"]["s"],
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit, source in PER_LAYER:
        value = run_level[name] if source is None else source(agg, c) / n
        metrics[name] = {"value": float(value), "unit": unit}

    body = sum(r.total_s for r in results)
    accounted = sum(a["self_s"] for a in agg.values())
    print(f"traced units: {n}; timed body {body:.4f} s; "
          f"self times sum to {accounted:.4f} s")
    print(f"tracing overhead on the golden unit: {overhead_s:+.4f} s "
          f"({100 * overhead_s / golden.total_s:+.1f}% of {golden.total_s:.4f} s)")
    print(f"{'span (per unit)':40s} {'calls':>9s} {'s':>9s} {'self_s':>9s} "
          f"{'self%':>6s}  kernels in self time")
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        ops = tracer.ops_by_span.get(name, {})
        op_txt = " ".join(f"{k}={v / n:.3f}" for k, v in sorted(ops.items()))
        print(f"{name:40s} {a['calls'] / n:9.1f} {a['s'] / n:9.4f} "
              f"{a['self_s'] / n:9.4f} {100 * a['self_s'] / body:6.1f}  {op_txt}")
    return metrics


def run(workload, seed, seconds, trace, import_s, repeats, blas_threads):
    checks = Checks()
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"blas: {blas_info()}, threads={blas_threads}")
    ctx, quality, load_s, golden_s = setup(workload, repeats, checks)
    setup_s = import_s + load_s + golden_s
    print(f"setup: import {import_s:.4f} s + median of {repeats} loads "
          f"{load_s:.4f} s + golden warm-up unit {golden_s:.4f} s")
    print(f"golden quality {json.dumps(quality)}")
    runner = workloads.Runner(workload, ctx, seed)

    if trace:
        metrics = traced(runner, seconds, checks)
    else:
        results = _timed_units(runner, seconds, checks)
        print(f"timed units: {len(results)}")
        print_stage_table(results, workload)
        values = end_to_end(results, workload, setup_s)
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]}
                   for k, v in values.items()}
    for label in checks.failures:
        print(f"FAILED check: {label}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": metrics}))
    return 0
