"""Consensus, mismatch, landscape, transfer, and probe-variance reports."""

import json

import numpy as np
import pytest

import drift.attacks as attacks_module
import drift.diagnostics as diagnostics_module
import drift.tape as tape_module
from drift.attacks import AttackSpec, _pipeline_loss_grad
from drift.diagnostics import (
    ConsensusReport, consensus, directional_mismatch, eot_loss_rows,
    gradient_norm_stats, loss_landscape, make_eot_ce_loss,
    orthonormal_directions, probe_variance_study, transfer_matrix,
)
from drift.errors import DomainError
from drift.losses import NORM_GUARD, cos_sq, draw_logit_probes
from drift.models import (
    Filter, FilterArch, FilterBank, base_apply, bind_params,
    build_base_model, build_filter_bank, filter_forward, sample_filter_index,
)
from drift.tape import Tape, cross_entropy_rows, dot_rows, grad, sum_all

from conftest import (
    delta_kernel, linear_logit_model, micro_bank, projection_filter,
)

RNG = np.random.default_rng(33)


def small_inputs(n=6, c=3, side=8, classes=4, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, size=(n, c, side, side))
    y = rng.integers(0, classes, size=n)
    return x, y


@pytest.fixture(scope="module")
def small_base():
    return build_base_model((3, 8, 8), 4, seed=3, channels=(4, 8)).freeze()


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def test_consensus_identity_bank_is_all_ones(small_base):
    bank = build_filter_bank("res_block", 3, seed=2)
    x, y = small_inputs()
    rep = consensus(bank, small_base, (x, y), mode="exact")
    assert rep.gamma.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(rep.gamma), np.ones(3))
    off = rep.gamma[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, atol=1e-8)
    assert rep.n_zero_grad == 0
    assert rep.mode == "exact" and rep.n_samples == len(y)


def test_consensus_orthogonal_projections_are_zero():
    fc = RNG.standard_normal((4, 3 * 4 * 4))
    model = linear_logit_model(4, 4, fc, c=3)
    bank = FilterBank([projection_filter([0]), projection_filter([1])])
    x, y = small_inputs(n=5, c=3, side=4)
    for mode in ("exact", "probed"):
        rep = consensus(bank, model, (x, y), mode=mode, probes=3)
        assert rep.gamma[0, 1] == 0.0 and rep.gamma[1, 0] == 0.0


def test_consensus_symmetric_bounded_on_generic_bank(small_base):
    bank = micro_bank(3, seed=4, jitter=0.2)
    x, y = small_inputs()
    rep = consensus(bank, small_base, (x, y), mode="exact")
    np.testing.assert_array_equal(rep.gamma, rep.gamma.T)
    assert np.all(rep.gamma >= 0.0) and np.all(rep.gamma <= 1.0)


def test_consensus_probed_close_to_exact_on_identical_pipelines(small_base):
    bank = build_filter_bank("res_block", 2, seed=0)
    x, y = small_inputs()
    exact = consensus(bank, small_base, (x, y), mode="exact")
    probed = consensus(bank, small_base, (x, y), mode="probed", probes=4)
    assert abs(exact.gamma[0, 1] - probed.gamma[0, 1]) < 1e-8
    assert probed.probes == 4


def test_consensus_zero_gradients_counted():
    model = linear_logit_model(4, 4, np.zeros((4, 48)), c=3)
    bank = build_filter_bank("res_block", 2, seed=1)
    x, y = small_inputs(n=5, c=3, side=4)
    rep = consensus(bank, model, (x, y), mode="exact")
    assert rep.gamma[0, 1] == 0.0
    assert rep.n_zero_grad == 5


def test_consensus_validation(small_base):
    bank = build_filter_bank("res_block", 2, seed=1)
    with pytest.raises(DomainError):
        consensus(bank, small_base, (np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int)))
    with pytest.raises(DomainError):
        consensus(bank, small_base, small_inputs(), mode="full")
    with pytest.raises(DomainError):
        ConsensusReport(np.eye(1), 1, "exact").mean_off_diagonal()


def test_consensus_json_round_trip(tmp_path, small_base):
    bank = micro_bank(2, seed=9)
    x, y = small_inputs()
    rep = consensus(bank, small_base, (x, y), mode="probed", probes=2, seed=5)
    path = tmp_path / "consensus.json"
    rep.save_json(path)
    loaded = json.loads(path.read_text())
    np.testing.assert_array_equal(np.asarray(loaded["gamma"]), rep.gamma)
    assert loaded["mode"] == "probed" and loaded["probes"] == 2


# The consensus implementation before it moved onto the attacks' gradient
# pass: all K pipelines on one tape and a per-row loop over pairs, kept here
# as the reference.

def _reference_grad_rows(bank, model, x, y, w=None):
    tape = Tape()
    xv = tape.leaf(x)
    mv = bind_params(tape, model.params)
    outs = []
    for f in bank.filters:
        logits = base_apply(mv, filter_forward(f, xv))
        if w is None:
            outs.append(sum_all(cross_entropy_rows(logits, y)))
        else:
            wb = np.broadcast_to(w, (x.shape[0], w.shape[0]))
            outs.append(sum_all(dot_rows(logits, tape.leaf(wb))))
    return np.stack([grad(tape, s, [xv])[0].value for s in outs])


def _reference_accumulate_pairs(gamma_sum, counts, grads_k, zero_rows):
    k, n = grads_k.shape[0], grads_k.shape[1]
    flat = grads_k.reshape(k, n, -1)
    for i in range(k):
        for j in range(i + 1, k):
            for r in range(n):
                if zero_rows[r]:
                    counts[i, j] += 1
                    continue
                gamma_sum[i, j] += cos_sq(flat[i, r], flat[j, r])
                counts[i, j] += 1


def _reference_consensus(bank, model, x, y, probe_ws):
    k = bank.k
    gamma_sum = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=np.int64)
    n_zero = 0
    for w in probe_ws:
        grads = _reference_grad_rows(bank, model, x, y, w)
        zero = np.zeros(len(y), dtype=bool)
        for gi in grads:
            zero |= np.sqrt(np.sum(gi.reshape(len(y), -1) ** 2, axis=1)) < NORM_GUARD
        n_zero += int(zero.sum())
        _reference_accumulate_pairs(gamma_sum, counts, grads, zero)
    gamma = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            gamma[i, j] = gamma[j, i] = gamma_sum[i, j] / max(counts[i, j], 1)
    return gamma, n_zero


def _bank_with_a_dead_row():
    """relu(x - 0.5) passes nothing (and no gradient) for a row below 0.5."""
    dead = Filter(FilterArch("single_conv"),
                  {"w1": delta_kernel(3, 3), "b1": np.full(3, -0.5)})
    bank = FilterBank([dead] + micro_bank(2, seed=4, jitter=0.2).filters)
    x, y = small_inputs(n=5)
    x[0] = np.random.default_rng(2).uniform(0.05, 0.45, size=x[0].shape)
    return bank, x, y


@pytest.mark.parametrize("mode", ["exact", "probed"])
def test_consensus_matches_reference_implementation(small_base, mode):
    bank, x, y = _bank_with_a_dead_row()
    rep = consensus(bank, small_base, (x, y), mode=mode, probes=3, seed=7)
    probe_ws = draw_logit_probes(3, small_base.k_classes, [7]) \
        if mode == "probed" else [None]
    gamma, n_zero = _reference_consensus(bank, small_base, x, y, probe_ws)
    assert n_zero == (1 if mode == "exact" else 3)
    assert rep.n_zero_grad == n_zero
    np.testing.assert_allclose(rep.gamma, gamma, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rep.gamma, rep.gamma.T)
    np.testing.assert_array_equal(np.diag(rep.gamma), np.ones(3))
    assert 0.0 < rep.gamma[1, 2] < 1.0


@pytest.mark.parametrize("mode", ["exact", "probed"])
def test_consensus_tape_holds_one_pipeline(monkeypatch, small_base, mode):
    bank = micro_bank(3, seed=4, jitter=0.2)
    x, y = small_inputs()
    largest = [0]
    inner = tape_module.vjp

    def counting_vjp(tape, output, cotangent, wrt):
        out = inner(tape, output, cotangent, wrt)
        largest[0] = max(largest[0], len(tape.nodes))
        return out
    monkeypatch.setattr(tape_module, "vjp", counting_vjp)

    consensus(bank, small_base, (x, y), mode=mode, probes=2)
    in_consensus, largest[0] = largest[0], 0
    w = draw_logit_probes(1, small_base.k_classes, [0])[0] \
        if mode == "probed" else None
    _pipeline_loss_grad(small_base, bank.filters[0], x, y, w=w)
    assert largest[0] > 0 and in_consensus == largest[0]


# ---------------------------------------------------------------------------
# eot loss surface
# ---------------------------------------------------------------------------

def test_eot_loss_rows_identity_bank_equals_base_ce(small_base):
    bank = build_filter_bank("res_block", 1, seed=0)
    x, y = small_inputs()
    got = eot_loss_rows(bank, small_base, x, y, eot_k=7, seed=3)
    z = small_base.forward_np(x)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    want = lse - z[np.arange(len(y)), y]
    np.testing.assert_array_equal(got, want)


def test_eot_loss_rows_deterministic(small_base):
    bank = micro_bank(3, seed=2)
    x, y = small_inputs()
    a = eot_loss_rows(bank, small_base, x, y, eot_k=8, seed=1)
    b = eot_loss_rows(bank, small_base, x, y, eot_k=8, seed=1)
    np.testing.assert_array_equal(a, b)
    c = eot_loss_rows(bank, small_base, x, y, eot_k=8, seed=2)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# directional mismatch
# ---------------------------------------------------------------------------

def test_mismatch_zero_model_gives_zero_deltas():
    model = linear_logit_model(4, 4, np.zeros((4, 48)), c=3)
    bank = build_filter_bank("res_block", 2, seed=1)
    x, y = small_inputs(n=3, c=3, side=4)
    stats = directional_mismatch(bank, model, (x, y), n_dirs=4, eot_k=4)
    for e in stats.etas:
        assert stats.per_eta[e]["median"] == 0.0
        assert stats.per_eta[e]["p95"] == 0.0
    assert stats.grad_norms["median"] == 0.0


def test_mismatch_quantile_ordering_and_eta_scaling(small_base):
    bank = micro_bank(2, seed=6, jitter=0.1)
    x, y = small_inputs(n=3)
    stats = directional_mismatch(bank, small_base, (x, y),
                                 etas=(1e-2, 1e-3), n_dirs=4, eot_k=4)
    for e in stats.etas:
        q = stats.per_eta[e]
        assert q["p05"] <= q["median"] <= q["p95"]
    # centered differences: curvature error shrinks with eta
    assert stats.per_eta[1e-3]["median"] <= stats.per_eta[1e-2]["median"]
    assert stats.n_samples == 3 and stats.n_dirs == 4


def test_mismatch_deterministic(small_base):
    bank = micro_bank(2, seed=6)
    x, y = small_inputs(n=2)
    a = directional_mismatch(bank, small_base, (x, y), n_dirs=3, eot_k=4)
    b = directional_mismatch(bank, small_base, (x, y), n_dirs=3, eot_k=4)
    assert a.per_eta == b.per_eta and a.grad_norms == b.grad_norms


def test_mismatch_evaluates_only_the_difference_points(monkeypatch, small_base):
    rows = []
    inner = diagnostics_module.eot_loss_rows

    def counting(bank, model, x, *args, **kwargs):
        rows.append(x.shape[0])
        return inner(bank, model, x, *args, **kwargs)
    monkeypatch.setattr(diagnostics_module, "eot_loss_rows", counting)
    directional_mismatch(micro_bank(2, seed=6), small_base, small_inputs(n=2),
                         etas=(1e-2, 1e-3), n_dirs=3, eot_k=4)
    assert rows == [3 * 2 * 2] * 2


def test_orthonormal_directions_properties():
    dirs = orthonormal_directions(4, (3, 4, 4), seed=7)
    flat = dirs.reshape(4, -1)
    np.testing.assert_allclose(flat @ flat.T, np.eye(4), atol=1e-12)
    with pytest.raises(DomainError):
        orthonormal_directions(50, (2, 2), seed=0)


def test_gradient_norm_stats(small_base):
    bank = micro_bank(2, seed=8)
    x, y = small_inputs()
    stats = gradient_norm_stats(bank, small_base, (x, y), eot_k=4)
    assert stats["p05"] <= stats["median"] <= stats["p95"]
    assert stats["median"] > 0.0

    zero = linear_logit_model(4, 4, np.zeros((4, 48)), c=3)
    xz, yz = small_inputs(n=4, c=3, side=4)
    zstats = gradient_norm_stats(build_filter_bank("res_block", 2, seed=0),
                                 zero, (xz, yz), eot_k=4)
    assert zstats["median"] == 0.0 and zstats["p95"] == 0.0


# ---------------------------------------------------------------------------
# loss landscape
# ---------------------------------------------------------------------------

def test_landscape_linear_fn_is_planar():
    c = RNG.standard_normal((3, 6, 6))
    fn = lambda x: float(np.vdot(c, x)) + 0.25
    x = RNG.uniform(0, 1, size=(3, 6, 6))
    grid = loss_landscape(fn, x, tau=0.1, grid_n=9, dir_seed=2)
    g = grid.grid
    assert g.shape == (9, 9)
    d2_rows = g[:, 2:] - 2 * g[:, 1:-1] + g[:, :-2]
    d2_cols = g[2:, :] - 2 * g[1:-1, :] + g[:-2, :]
    assert np.max(np.abs(d2_rows)) <= 1e-10
    assert np.max(np.abs(d2_cols)) <= 1e-10
    assert g[4, 4] == fn(x)


def test_landscape_requires_odd_grid():
    with pytest.raises(DomainError):
        loss_landscape(lambda x: 0.0, np.zeros((1, 2, 2)), tau=0.1, grid_n=4)


def test_landscape_eot_deterministic_and_centered(small_base):
    bank = micro_bank(3, seed=5)
    x, y = small_inputs(n=1)
    fn = make_eot_ce_loss(bank, small_base, y[0], sample_id=17, eot_k=6, seed=4)
    g1 = loss_landscape(fn, x[0], tau=3 / 255, grid_n=5, dir_seed=1, eot_k=6)
    g2 = loss_landscape(fn, x[0], tau=3 / 255, grid_n=5, dir_seed=1, eot_k=6)
    np.testing.assert_array_equal(g1.grid, g2.grid)
    want_center = eot_loss_rows(bank, small_base, x, y, eot_k=6, seed=4,
                                sample_ids=np.asarray([17]))[0]
    assert g1.grid[2, 2] == want_center


def test_landscape_loss_draws_its_counts_once(monkeypatch, small_base):
    draws = []

    def counting(k, seed):
        draws.append(1)
        return sample_filter_index(k, seed)
    monkeypatch.setattr(attacks_module, "sample_filter_index", counting)
    x, y = small_inputs(n=1)
    fn = make_eot_ce_loss(micro_bank(3, seed=5), small_base, y[0],
                          sample_id=17, eot_k=6, seed=4)
    loss_landscape(fn, x[0], tau=3 / 255, grid_n=5, dir_seed=1, eot_k=6)
    assert len(draws) == 6


def test_landscape_loss_equals_eot_loss_rows_at_every_cell(small_base):
    bank = micro_bank(3, seed=5)
    x, y = small_inputs(n=1)
    fn = make_eot_ce_loss(bank, small_base, y[0], sample_id=17, eot_k=6, seed=4)
    grid = loss_landscape(fn, x[0], tau=3 / 255, grid_n=5, dir_seed=1).grid
    u, v = orthonormal_directions(2, x[0].shape, 1)
    offsets = np.linspace(-3 / 255, 3 / 255, 5)
    for a, da in enumerate(offsets):
        for b, db in enumerate(offsets):
            point = (x[0] + da * u + db * v)[None]
            want = eot_loss_rows(bank, small_base, point, y, eot_k=6, seed=4,
                                 sample_ids=np.asarray([17]))[0]
            assert grid[a, b] == want


def test_landscape_csv_round_trip(tmp_path):
    fn = lambda x: float(x.sum())
    x = RNG.uniform(0, 1, size=(2, 3, 3))
    grid = loss_landscape(fn, x, tau=0.05, grid_n=5, dir_seed=3, eot_k=12)
    path = tmp_path / "landscape.csv"
    grid.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,grid_n,dir_seed,eot_k"
    tau, grid_n, dir_seed, eot_k = lines[1].split(",")
    back = np.asarray([[float(v) for v in line.split(",")]
                       for line in lines[2:]])
    np.testing.assert_array_equal(back, grid.grid)
    assert float(tau) == grid.tau and int(grid_n) == 5
    assert int(dir_seed) == 3 and int(eot_k) == 12


# ---------------------------------------------------------------------------
# transferability
# ---------------------------------------------------------------------------

def test_transfer_identity_bank_uniform(small_base):
    bank = build_filter_bank("res_block", 3, seed=1)
    x, y = small_inputs(n=8)
    spec = AttackSpec(kind="pgd", norm="linf", epsilon=8 / 255, steps=5)
    mat = transfer_matrix(bank, small_base, (x, y), spec)
    assert mat.shape == (3, 3)
    np.testing.assert_array_equal(mat, np.full((3, 3), mat[0, 0]))
    assert 0.0 <= mat[0, 0] <= 100.0


def test_transfer_rejects_non_pgd(small_base):
    bank = build_filter_bank("res_block", 2, seed=1)
    spec = AttackSpec(kind="square", norm="linf", epsilon=8 / 255, steps=5)
    with pytest.raises(DomainError):
        transfer_matrix(bank, small_base, small_inputs(n=2), spec)


# ---------------------------------------------------------------------------
# probe variance study
# ---------------------------------------------------------------------------

def test_probe_variance_study_statistics():
    bank = micro_bank(2, seed=11, jitter=0.3)
    x = RNG.uniform(0, 1, size=(4, 3, 8, 8))
    rows = probe_variance_study(bank, x, p_list=(2, 5, 10), trials=40,
                                seed=2, epsilon=0.25)
    assert [r["P"] for r in rows] == [2, 5, 10]
    for r in rows:
        assert 0.0 <= r["mean"] <= 1.0
        assert r["exceed_rate"] <= r["hoeffding_bound"]
    assert rows[0]["variance"] > rows[-1]["variance"]
    # unbiasedness: means agree across P within 2 pooled standard errors
    ref = np.mean([r["mean"] for r in rows])
    for r in rows:
        se = np.sqrt(r["variance"] / 40)
        assert abs(r["mean"] - ref) <= 2 * se + 1e-6


def test_probe_variance_hoeffding_value():
    bank = micro_bank(2, seed=1)
    x = RNG.uniform(0, 1, size=(2, 3, 8, 8))
    rows = probe_variance_study(bank, x, p_list=(5,), trials=30,
                                seed=0, epsilon=0.5)
    assert abs(rows[0]["hoeffding_bound"] - 2 * np.exp(-2.5)) < 1e-12


def test_probe_variance_validation():
    bank = micro_bank(2)
    x = RNG.uniform(0, 1, size=(2, 3, 8, 8))
    with pytest.raises(DomainError):
        probe_variance_study(bank, x, trials=5)
    with pytest.raises(DomainError):
        probe_variance_study(micro_bank(1), x, trials=40)
