"""Tests of the benchmark's own code: span arithmetic, wrappers, outputs.

    python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
import tracing
import workloads
from drift import attacks, diagnostics, losses, models, tape
from drift.data import generate_synthetic_dataset
from drift.models import FilterArch, build_base_model, build_filter_bank

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second root a [20, 21] shares a's name.
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 20.0, 21.0, None],
    ]
    agg = tracing.self_times(spans)
    assert agg["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert agg["b"] == {"calls": 1, "s": 4.0, "self_s": 4.0}
    assert agg["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(a["self_s"] for a in agg.values()) == 11.0


def test_tracer_spans_nest_and_self_times_sum_to_roots():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
    agg = tr.aggregate()
    assert [s[3] for s in tr.spans] == [None, 0, 0, 2]
    assert agg["outer"]["s"] == sum(a["self_s"] for a in agg.values())
    assert agg["inner"]["calls"] == 2


def _bindings():
    """id of every function bound in drift modules, kernels and methods."""
    out = {(m.__name__, a): v for m in tracing.drift_modules()
           for a, v in vars(m).items() if callable(v)}
    out.update({("_FORWARD", op): fn for op, fn in tape._FORWARD.items()})
    out[("GradientOracle", "__call__")] = vars(attacks.GradientOracle)["__call__"]
    out[("Tape", "_append")] = vars(tape.Tape)["_append"]
    return out


def test_every_wrapper_is_installed_by_identity_and_restored():
    before = _bindings()
    raw_conv = tape._FORWARD["conv2d"]
    with tracing.Tracer() as tr:
        # from-imports are separate bindings of the same function
        assert hasattr(losses.vjp, "__bench_original__")
        assert hasattr(tape.vjp, "__bench_original__")
        assert attacks.sample_filter_index is models.sample_filter_index
        assert hasattr(attacks.sample_filter_index, "__bench_original__")
        assert hasattr(models.rng_from, "__bench_original__")
        assert hasattr(tape._FORWARD["conv2d"], "__bench_original__")
        # the tape-free path keeps the raw kernel
        assert models._np_conv is raw_conv
        during = _bindings()
        assert tracing.installed_wrappers()
        x = np.ones((1, 3, 8, 8))
        models.np_conv2d(x, np.ones((2, 3, 3, 3)), np.zeros(2), 1)
    assert tr.counters["tape.conv2d.calls"] == 0
    assert tr.counters["models.np_conv2d.rows"] == 1
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(during[k] is not before[k] for k in before)


@pytest.fixture(scope="module")
def tiny_ctx():
    model = build_base_model((3, 8, 8), 4, seed=0, channels=(4, 4)).freeze()
    bank = build_filter_bank(FilterArch("res_block", hidden=2), 2, seed=1)
    # nudge the identity-initialised filters apart so their draws matter
    for i, f in enumerate(bank.filters):
        f.params["w2"] = np.full_like(f.params["w2"], 0.01 * (i + 1))
    train, eval_ = generate_synthetic_dataset(4, 8, 4, seed=0)
    return workloads.Context(bank, model, train, eval_)


def _units(ctx, tracer=None):
    bank = workloads.fresh_bank(1, 1, k=2, hidden=2)
    return [
        workloads.train_unit(ctx, bank, 1, 1, n=4, tracer=tracer),
        workloads.whitebox_unit(ctx, 1, 1, n=2, tracer=tracer),
        workloads.blackbox_unit(ctx, 1, 1, n=2, grid=3, tracer=tracer),
    ]


def test_traced_outputs_bitwise_equal_untraced(tiny_ctx):
    plain = _units(tiny_ctx)
    with tracing.Tracer() as tr:
        traced = _units(tiny_ctx, tracer=tr)
    assert [r.fingerprint() for r in traced] == [r.fingerprint() for r in plain]
    assert all(ok for r in plain for _, ok in r.checks)
    names = tr.aggregate()
    for stage in ("train", "pretrain", "eot_pgd", "diag", "square", "landscape"):
        assert f"bench.{stage}" in names
    assert tr.counters["tape.conv2d.calls"] > 0
    assert tr.counters["rng.draws.square"] > 0
    assert tr.counters["attacks.square.score_rows"] == \
        tr.counters["rng.draws.square"]


def test_train_unit_bank_is_off_the_identity(tiny_ctx):
    # an identity bank pins js and lvjp at 1, where their gradients vanish
    def quality(bank):
        res = workloads.train_unit(tiny_ctx, bank, 2, 0, n=4)
        return res, workloads.train_quality(tiny_ctx, res)
    ident = build_filter_bank(FilterArch("res_block", hidden=16), 2, seed=5)
    _, q_ident = quality(ident)
    assert 1 - q_ident["js"] < 1e-10 and 1 - q_ident["lvjp"] < 1e-10
    res, q = quality(workloads.fresh_bank(2, 0, k=2))
    assert 1 - q["js"] > 1e-5 and 1 - q["lvjp"] > 1e-5
    assert q["grad_norm"] > 0 and q["step_norm"] > 0
    again, _ = quality(workloads.fresh_bank(2, 0, k=2))
    assert again.fingerprint() == res.fingerprint()


def test_eot_useful_ratio_matches_hand_count(tiny_ctx):
    split = workloads.subset(tiny_ctx.eval, 3, 0, 0)
    eot_k, seed = 6, 5
    with tracing.Tracer() as tr:
        diagnostics.gradient_norm_stats(tiny_ctx.bank, tiny_ctx.model, split,
                                        eot_k=eot_k, seed=seed)
    # by hand: every (sample, step 0, filter) the EoT draws landed on
    distinct = {(int(s), models.sample_filter_index(
        2, [seed, attacks.EOT_TAG, int(s), 0, j]))
        for s in split.ids for j in range(eot_k)}
    assert tr.counters["rng.draws.eot"] == len(split) * eot_k
    assert tr.eot_useful_ratio() == len(distinct) / (len(split) * eot_k)
    assert 0 < tr.eot_useful_ratio() <= 2 / eot_k


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in bench.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_golden_checks_use_the_stated_tolerances():
    golden = {"gamma_mean_offdiag": 0.3, "square_queries": 3000}
    ok = workloads.golden_checks(
        {"gamma_mean_offdiag": 0.3 * (1 + 1e-9), "square_queries": 3800}, golden)
    bad = workloads.golden_checks(
        {"gamma_mean_offdiag": 0.3 * (1 + 1e-5), "square_queries": 3801}, golden)
    assert [c[1] for c in ok] == [True, True]
    assert [c[1] for c in bad] == [False, False]
