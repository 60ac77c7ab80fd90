"""End-to-end acceptance gates, one test per numbered criterion.

Each test states its claim and tolerance inline and is designed to run
from a cold start (module fixtures train the desk-scale model once and
share it). Together these cover: autodiff fidelity, the first-order
transfer oracle, the probed consensus estimator, the training effect,
transferability structure, attack contracts, obfuscation forensics,
clean-accuracy preservation, and the engineering envelope.
"""

import time

import numpy as np
import pytest

from conftest import linear_logit_model, micro_bank, projection_filter
from drift.attacks import (
    AttackSpec, GradientOracle, adaptive_attack, base_oracle, check_budget,
    mim, pgd, square_attack, ensemble_margin_score,
)
from drift.data import Split, generate_synthetic_dataset
from drift.diagnostics import (
    consensus, directional_mismatch, loss_landscape, make_eot_ce_loss,
    probe_variance_study, transfer_matrix,
)
from drift.dtns import load_checkpoint, read_tensors, write_tensors
from drift.harness import (
    config_from_dict, default_config, evaluate_robust_accuracy,
    measure_overhead, rerun_from_manifest, run_experiment, stochastic_predict,
)
from drift.losses import LossWeights
from drift.models import FilterBank, build_filter_bank
from drift.tape import (
    Tape, conv2d, cross_entropy_rows, dense, grad, relu, reshape, sum_all,
)
from drift.training import TrainConfig, train_drift

SEED = 0


# ---------------------------------------------------------------------------
# Shared desk-scale artifacts. The full pipeline runs once; its wall time,
# checkpoint, and metrics feed criteria 4, 5, 6, 7, 8, and 9.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "desk-run"
    config = default_config(out_dir=str(out), seed=SEED)
    t0 = time.perf_counter()
    metrics = run_experiment(config)
    wall = time.perf_counter() - t0
    bank, model = load_checkpoint(out / "checkpoint.dtns")
    train_split, eval_split = generate_synthetic_dataset(
        config.dataset.classes, config.dataset.side,
        config.dataset.n_per_class, config.dataset.seed)
    return {
        "config": config, "metrics": metrics, "wall": wall, "out": out,
        "bank": bank, "model": model,
        "train": train_split, "eval": eval_split,
    }


@pytest.fixture(scope="module")
def ce_adv_baseline(desk):
    """Ablation arm: same recipe, separation losses off."""
    config = desk["config"]
    weights = LossWeights(alpha=config.train.weights.alpha, beta_js=0.0,
                          beta_lvjp=0.0,
                          lambda_adv=config.train.weights.lambda_adv)
    cfg = TrainConfig(
        epochs=config.train.epochs, batch_size=config.train.batch_size,
        lr=config.train.lr, weight_decay=config.train.weight_decay,
        weights=weights, w_js=config.train.w_js, w_lvjp=config.train.w_lvjp,
        w_adv=config.train.w_adv, pgd_epsilon=config.train.pgd_epsilon,
        pgd_steps=config.train.pgd_steps, probes=config.train.probes,
        seed=config.train.seed)
    bank = build_filter_bank("res_block", config.bank.k, seed=SEED)
    t0 = time.perf_counter()
    bank, _ = train_drift(desk["model"], bank, (desk["train"].x,
                                                desk["train"].y), cfg)
    return bank, time.perf_counter() - t0


def adaptive_eval_spec(config):
    specs = [a for a in config.attacks if a.kind == "pgd" and a.eot_samples]
    assert specs, "default config must carry an adaptive attack"
    return specs[0]


# ---------------------------------------------------------------------------
# 1. Autodiff correctness on random composite graphs
# ---------------------------------------------------------------------------

def _random_graph_case(rng):
    """Random conv/relu/dense/xent pipeline; returns (f, x0) with scalar f."""
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    side = int(rng.integers(4, 9))
    depth = int(rng.integers(1, 4))
    chans = [c] + [int(rng.integers(1, 5)) for _ in range(depth)]
    kernels = [rng.standard_normal((chans[i + 1], chans[i], 3, 3)) * 0.5
               for i in range(depth)]
    biases = [rng.standard_normal(chans[i + 1]) * 0.1 for i in range(depth)]
    classes = int(rng.integers(2, 6))
    w = rng.standard_normal((classes, chans[-1] * side * side)) * 0.3
    b = rng.standard_normal(classes) * 0.1
    y = rng.integers(0, classes, size=n)
    x0 = rng.uniform(0.0, 1.0, size=(n, c, side, side))

    def f(x_np, want_grad=False):
        t = Tape()
        xv = t.leaf(x_np)
        h = xv
        for i in range(depth):
            h = relu(conv2d(h, t.leaf(kernels[i]), t.leaf(biases[i]), 1))
        flat = reshape(h, (n, chans[-1] * side * side))
        logits = dense(flat, t.leaf(w), t.leaf(b))
        loss = sum_all(cross_entropy_rows(logits, y))
        if not want_grad:
            return float(loss.value)
        (g,) = grad(t, loss, [xv])
        return float(loss.value), g.value

    def relu_margin(x_np):
        # distance of every relu input from its kink
        t = Tape()
        h = t.leaf(x_np)
        worst = np.inf
        for i in range(depth):
            pre = conv2d(h, t.leaf(kernels[i]), t.leaf(biases[i]), 1)
            worst = min(worst, float(np.abs(pre.value).min()))
            h = relu(pre)
        return worst

    return f, x0, relu_margin


def test_criterion_1_autodiff_vs_finite_differences():
    rng = np.random.default_rng(20260815)
    t_start = time.perf_counter()
    errs = []
    eta = 1e-6
    built = 0
    while built < 100:
        f, x0, relu_margin = _random_graph_case(rng)
        # keep the FD stencil away from relu kinks
        if relu_margin(x0) < 1e-4:
            continue
        _, g = f(x0, want_grad=True)
        u = rng.standard_normal(x0.shape)
        u /= np.linalg.norm(u)
        if relu_margin(x0 + eta * u) < 1e-7 or relu_margin(x0 - eta * u) < 1e-7:
            continue
        fd = (f(x0 + eta * u) - f(x0 - eta * u)) / (2 * eta)
        an = float(np.vdot(g, u))
        errs.append(abs(an - fd) / (abs(fd) + 1e-12))
        built += 1
    elapsed = time.perf_counter() - t_start
    errs = np.asarray(errs)
    assert np.median(errs) <= 1e-5, f"median rel err {np.median(errs):.3e}"
    assert errs.max() <= 1e-3, f"max rel err {errs.max():.3e}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. First-order transfer oracle on linear pipelines
# ---------------------------------------------------------------------------

def _linear_oracle(c):
    def fn(x, y, step):
        loss = (x * c).reshape(x.shape[0], -1).sum(axis=1)
        return loss, np.broadcast_to(c, x.shape).copy()
    return GradientOracle("linear", fn)


def test_criterion_2_first_order_transfer_oracle():
    rng = np.random.default_rng(42)
    shape = (1, 2, 6, 6)
    eps = 0.01
    # (a) loss increase on pipeline j after attacking pipeline i equals
    #     eps * ||g_j|| * cos(g_i, g_j) to rel err <= 1e-10
    for _ in range(20):
        g_i = rng.standard_normal(shape)
        g_j = rng.standard_normal(shape)
        x0 = np.full(shape, 0.5)
        spec = AttackSpec(kind="pgd", norm="l2", epsilon=eps, steps=1,
                          step_size=eps)
        _, delta = pgd(_linear_oracle(g_i), x0, np.array([0]), spec)
        measured = float(np.vdot(g_j, delta))
        cos = np.vdot(g_i, g_j) / (np.linalg.norm(g_i) * np.linalg.norm(g_j))
        predicted = eps * np.linalg.norm(g_j) * cos
        assert abs(measured - predicted) / abs(predicted) <= 1e-10

    # (b) cross-filter attack success is monotone in consensus
    d = 36
    e1 = np.zeros(d); e1[0] = 1.0
    e2 = np.zeros(d); e2[1] = 1.0
    margins = np.linspace(0.0001, 0.012, 120)  # victims at graded distances
    success = []
    for gamma in (0.0, 0.25, 0.5, 0.9):
        g_i = e1.reshape(1, 1, 6, 6)
        g_j = (np.sqrt(gamma) * e1 + np.sqrt(1 - gamma) * e2).reshape(1, 1, 6, 6)
        spec = AttackSpec(kind="pgd", norm="l2", epsilon=eps, steps=1,
                          step_size=eps)
        x0 = np.full((1, 1, 6, 6), 0.5)
        _, delta = pgd(_linear_oracle(-g_i), x0, np.array([0]), spec)
        drop = -float(np.vdot(g_j, delta))
        success.append(float(np.mean(margins < drop)))
    assert all(b > a for a, b in zip(success, success[1:])), success


# ---------------------------------------------------------------------------
# 3. Probed consensus estimator
# ---------------------------------------------------------------------------

def test_criterion_3_probed_consensus_estimator():
    # (a) probed == exact on constructions where the estimator is
    #     deterministic: identity bank, and rank-one linear pipelines
    #     (every logit probe collapses onto one input direction).
    rng = np.random.default_rng(3)
    h = w = 6
    x = rng.uniform(0.2, 0.8, size=(10, 2, h, w))
    y = rng.integers(0, 3, size=10)
    ids = np.arange(10)
    split = Split(x, y, ids)

    a = np.array([1.2, -0.7, 0.3])
    c = rng.standard_normal(2 * h * w)
    c -= c.mean()  # zero-sum rows cancel the pipelines' constant offsets
    c *= 2.0       # VJP norms >> the cos^2 denominator guard
    model = linear_logit_model(h, w, np.outer(a, c), c=2)
    fa = projection_filter([0], c=2)
    fb = projection_filter([0, 1], c=2)
    bank = FilterBank([fa, fb], seed=0)
    exact = consensus(bank, model, split, mode="exact")
    probed = consensus(bank, model, split, mode="probed", probes=40, seed=1)
    assert exact.n_zero_grad == 0
    assert 0.05 < exact.gamma[0, 1] < 0.95, "construction must not be trivial"
    assert np.abs(probed.gamma - exact.gamma).max() <= 1e-10

    ident = FilterBank([projection_filter([0, 1], c=2),
                        projection_filter([0, 1], c=2)], seed=0)
    p_id = consensus(ident, model, split, mode="probed", probes=40, seed=2)
    assert np.abs(p_id.gamma - 1.0).max() <= 1e-10

    # (b) estimator variance scales as 1/P: log-var slope -1 +/- 0.3
    gen_bank = micro_bank(3, seed=5, jitter=0.3)
    xb = rng.uniform(0.0, 1.0, size=(6, 3, 8, 8))
    rows = probe_variance_study(gen_bank, xb, p_list=(2, 5, 10, 20, 40),
                                trials=150, seed=0, epsilon=0.25)
    ps = np.log([r["P"] for r in rows])
    vs = np.log([r["variance"] for r in rows])
    slope = float(np.polyfit(ps, vs, 1)[0])
    assert -1.3 <= slope <= -0.7, f"slope {slope:.3f}"

    # (c) empirical exceedance never beats the Hoeffding bound
    for r in rows:
        assert r["exceed_rate"] <= r["hoeffding_bound"] + 1e-12, r


# ---------------------------------------------------------------------------
# 4. Training effect at desk scale
# ---------------------------------------------------------------------------

def test_criterion_4_training_effect(desk, ce_adv_baseline):
    bank_full, model = desk["bank"], desk["model"]
    bank_base, t_base_train = ce_adv_baseline
    ev = desk["eval"]
    t0 = time.perf_counter()
    gamma_full = consensus(bank_full, model, ev, mode="exact")
    gamma_base = consensus(bank_base, model, ev, mode="exact")
    t_gamma = time.perf_counter() - t0

    spec = adaptive_eval_spec(desk["config"])
    label = [k for k in desk["metrics"].robust_accuracy if "eot" in k][0]
    ra_full = desk["metrics"].robust_accuracy[label]
    t0 = time.perf_counter()
    rec = evaluate_robust_accuracy(bank_base, model, ev, [spec],
                                   inference_seed=SEED)
    t_base_eval = time.perf_counter() - t0
    ra_base = [v for k, v in rec.robust_accuracy.items() if k != "none"][0]

    g_full = gamma_full.mean_off_diagonal()
    g_base = gamma_base.mean_off_diagonal()
    assert g_full <= 0.5 * g_base, f"Gamma {g_full:.4f} vs base {g_base:.4f}"
    assert ra_full >= ra_base + 5.0, f"RA {ra_full:.1f} vs base {ra_base:.1f}"

    budget = (desk["metrics"].timings["train"] + t_base_train + t_gamma +
              t_base_eval + desk["metrics"].timings["attacks"])
    assert budget <= 600.0, f"criterion work took {budget:.0f}s"


# ---------------------------------------------------------------------------
# 5. Transferability matrix
# ---------------------------------------------------------------------------

def test_criterion_5_transferability_matrix(desk):
    bank, model, ev = desk["bank"], desk["model"], desk["eval"]
    spec = AttackSpec(kind="pgd", norm="linf", epsilon=8 / 255,
                      steps=10, seed=SEED)
    mat = transfer_matrix(bank, model, ev, spec)
    k = bank.k
    diag = float(np.diag(mat).mean())
    off = float(mat[~np.eye(k, dtype=bool)].mean())
    assert off >= diag + 10.0, f"off {off:.1f} vs diag {diag:.1f}"

    ident = build_filter_bank("res_block", k, seed=SEED)
    mat0 = transfer_matrix(ident, model, Split(ev.x[:60], ev.y[:60],
                                               ev.ids[:60]), spec)
    assert np.all(mat0 == mat0[0, 0]), "identity bank rows must coincide"


# ---------------------------------------------------------------------------
# 6. Attack contracts
# ---------------------------------------------------------------------------

def test_criterion_6_attack_contracts(desk):
    bank, model, ev = desk["bank"], desk["model"], desk["eval"]
    x, y, ids = ev.x[:100], ev.y[:100], ev.ids[:100]
    sub = Split(x, y, ids)
    oracle = base_oracle(model)

    # budget exactness, [0,1] outputs, bitwise determinism
    for spec, run in [
        (AttackSpec(kind="pgd", norm="linf", epsilon=8 / 255, steps=10,
                    seed=3), lambda s: pgd(oracle, x, y, s)),
        (AttackSpec(kind="pgd", norm="l2", epsilon=0.5, steps=10, seed=3),
         lambda s: pgd(oracle, x, y, s)),
        (AttackSpec(kind="mim", norm="linf", epsilon=8 / 255, steps=10,
                    seed=3), lambda s: mim(oracle, x, y, s)),
    ]:
        x_adv, delta = run(spec)
        check_budget(delta, spec)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0
        x_adv2, _ = run(spec)
        np.testing.assert_array_equal(x_adv, x_adv2)

    sq = AttackSpec(kind="square", norm="linf", epsilon=8 / 255, steps=1,
                    query_budget=60, seed=3)
    score = ensemble_margin_score(bank, model)
    xa, _, _ = square_attack(score, x, y, sq, sample_ids=ids)
    check_budget(xa - x, sq)
    assert xa.min() >= 0.0 and xa.max() <= 1.0
    xb_, _, _ = square_attack(score, x, y, sq, sample_ids=ids)
    np.testing.assert_array_equal(xa, xb_)

    ad = AttackSpec(kind="pgd", norm="linf", epsilon=4 / 255, steps=10,
                    eot_samples=5, seed=3)
    xa, da = adaptive_attack(bank, model, x, y, ad)
    check_budget(da, ad)
    xa2, _ = adaptive_attack(bank, model, x, y, ad)
    np.testing.assert_array_equal(xa, xa2)

    # robust accuracy nonincreasing in epsilon ...
    def ra(x_adv):
        preds, _ = stochastic_predict(bank, model, x_adv, ids, seed=SEED)
        return float(np.mean(preds == y))

    accs = []
    for eps_n in (1, 2, 4, 8):
        spec = AttackSpec(kind="pgd", norm="linf", epsilon=eps_n / 255,
                          steps=20, seed=3)
        x_adv, _ = pgd(oracle, x, y, spec)
        accs.append(ra(x_adv))
    assert all(a >= b - 1e-12 for a, b in zip(accs, accs[1:])), accs

    # ... and in EoT samples
    accs_eot = []
    for m in (5, 10, 20):
        spec = AttackSpec(kind="pgd", norm="linf", epsilon=4 / 255, steps=10,
                          eot_samples=m, seed=3)
        x_adv, _ = adaptive_attack(bank, model, x, y, spec)
        accs_eot.append(ra(x_adv))
    assert all(a >= b - 1e-12 for a, b in zip(accs_eot, accs_eot[1:])), accs_eot


# ---------------------------------------------------------------------------
# 7. Obfuscated-gradient forensics
# ---------------------------------------------------------------------------

def test_criterion_7_obfuscation_diagnostics(desk):
    bank, model, ev = desk["bank"], desk["model"], desk["eval"]
    sub = Split(ev.x[:16], ev.y[:16], ev.ids[:16])
    stats = directional_mismatch(bank, model, sub, etas=(1e-3,), n_dirs=10,
                                 eot_k=128, seed=SEED)
    med = stats.per_eta[1e-3]["median"]
    assert med <= 0.05, f"median mismatch {med:.4f}"

    # a genuinely linear surface is planar to second differences
    rng = np.random.default_rng(7)
    cvec = rng.standard_normal(ev.x[0].shape)

    def lin(x):
        return float(np.vdot(cvec, x)) + 0.25

    grid = loss_landscape(lin, ev.x[0], tau=3 / 255, grid_n=41, dir_seed=1)
    g = grid.grid
    d2a = np.abs(g[:-2, :] - 2 * g[1:-1, :] + g[2:, :]).max()
    d2b = np.abs(g[:, :-2] - 2 * g[:, 1:-1] + g[:, 2:]).max()
    assert max(d2a, d2b) <= 1e-10, (d2a, d2b)

    # the EoT cross-entropy surface at full resolution inside the budget
    fn = make_eot_ce_loss(bank, model, ev.y[0], sample_id=int(ev.ids[0]),
                          eot_k=128, seed=SEED)
    t0 = time.perf_counter()
    full = loss_landscape(fn, ev.x[0], tau=3 / 255, grid_n=41, dir_seed=1,
                          eot_k=128)
    elapsed = time.perf_counter() - t0
    assert full.grid.shape == (41, 41)
    assert np.isfinite(full.grid).all()
    assert elapsed <= 120.0, f"41x41 grid took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. Clean accuracy preservation
# ---------------------------------------------------------------------------

def test_criterion_8_clean_accuracy(desk):
    bank, model, ev = desk["bank"], desk["model"], desk["eval"]
    base_acc = 100.0 * float((model.forward_np(ev.x).argmax(1) == ev.y).mean())
    ens_acc = desk["metrics"].clean_accuracy
    assert ens_acc >= base_acc - 3.0, f"{ens_acc:.1f} vs base {base_acc:.1f}"

    ident = build_filter_bank("res_block", bank.k, seed=SEED)
    preds, logits = stochastic_predict(ident, model, ev.x, ev.ids, seed=SEED)
    init_acc = 100.0 * float(np.mean(preds == ev.y))
    assert init_acc == base_acc, "identity init must match the base exactly"
    np.testing.assert_array_equal(logits, model.forward_np(ev.x))


# ---------------------------------------------------------------------------
# 9. Engineering envelope
# ---------------------------------------------------------------------------

def test_criterion_9_engineering(desk, tmp_path):
    # DTNS round-trip is bitwise lossless for both precisions, ranks 0..5
    rng = np.random.default_rng(9)
    tensors = {}
    for rank in range(6):
        shape = tuple(rng.integers(1, 4, size=rank))
        tensors[f"a{rank}"] = rng.standard_normal(shape)
        tensors[f"b{rank}"] = rng.standard_normal(shape).astype(np.float32)
    path = tmp_path / "rt.dtns"
    write_tensors(path, tensors)
    back = read_tensors(path)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].tobytes() == arr.tobytes()

    # default config completes inside the budget (15 min on 4 cores;
    # enforced on wall clock here, single worker)
    assert desk["wall"] <= 900.0, f"run_experiment took {desk['wall']:.0f}s"

    # manifest rerun reproduces every metric value exactly
    micro = config_from_dict({
        "experiment_id": "accept-micro", "seed": 5,
        "dataset": {"classes": 3, "side": 8, "n_per_class": 10},
        "model": {"channels": [4, 8], "pretrain_epochs": 6},
        "bank": {"k": 2, "hidden": 4},
        "train": {"epochs": 2, "batch_size": 30, "w_js": 0, "w_lvjp": 0,
                  "w_adv": 0, "pgd_steps": 2,
                  "probes": {"p_v": 1, "p_w": 1, "seed": 5}},
        "attacks": [{"kind": "pgd", "norm": "linf", "epsilon": 8 / 255,
                     "steps": 3}],
        "out_dir": str(tmp_path / "m1"),
    })
    m1 = run_experiment(micro)
    m2 = rerun_from_manifest(tmp_path / "m1" / "manifest.json",
                             tmp_path / "m2")
    assert m1.to_dict(include_timings=False) == m2.to_dict(include_timings=False)
    for name in ("attacks.csv", "training_log.csv", "checkpoint.dtns"):
        assert (tmp_path / "m1" / name).read_bytes() == \
            (tmp_path / "m2" / name).read_bytes()

    # forward-time ratio of the defended path
    ov = measure_overhead(desk["bank"], desk["model"], n_trials=300)
    assert ov["ratio"] <= 1.5, f"forward ratio {ov['ratio']:.3f}"
    assert ov["param_bytes"] == 883 * 8
