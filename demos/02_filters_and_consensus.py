"""Filter banks and gradient consensus.

A bank of dimension-preserving filters sits in front of a frozen
classifier. At initialization every filter is the identity, so all K
pipelines compute the same function and their loss gradients agree
perfectly: the consensus matrix is all ones. Perturbing the filters
apart makes the off-diagonal entries drop, and that disagreement is the
quantity training later drives down on purpose.
"""

import numpy as np

from drift.data import generate_synthetic_dataset
from drift.diagnostics import consensus
from drift.models import (
    build_base_model, build_filter_bank, filter_forward_np, pretrain_and_freeze,
)
from drift.rng import rng_from

train, evl = generate_synthetic_dataset(classes=4, side=8, n_per_class=12, seed=3)
model = build_base_model((3, 8, 8), 4, seed=3, channels=(8, 16))
model = pretrain_and_freeze(model, (train.x, train.y), epochs=12, lr=1e-3)

bank = build_filter_bank("res_block", K=3, seed=3)

# Identity at init: the ensemble is literally the base model.
base_logits = model.forward_np(evl.x)
ens_logits = model.forward_np(filter_forward_np(bank.filters[0], evl.x))
print(f"max |ensemble - base| at init: {np.abs(ens_logits - base_logits).max():.3e}")

rep = consensus(bank, model, evl, mode="exact")
print("consensus at init:")
print(np.array2string(rep.gamma, precision=4))

# Push the filters apart by hand, consensus reacts.
for i, f in enumerate(bank.filters):
    f.params["w2"] += rng_from(99, i).normal(0.0, 0.05, size=f.params["w2"].shape)
rep2 = consensus(bank, model, evl, mode="exact")
print("consensus after perturbing the filters:")
print(np.array2string(rep2.gamma, precision=4))
print(f"mean off-diagonal: {rep.mean_off_diagonal():.4f} -> {rep2.mean_off_diagonal():.4f}")

# The probed estimator needs no per-sample gradients, only K VJPs per probe.
rep3 = consensus(bank, model, evl, mode="probed", probes=40, seed=0)
print(f"probed (P=40) mean off-diagonal: {rep3.mean_off_diagonal():.4f}")
