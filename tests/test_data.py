"""Synthetic dataset: determinism, split hygiene, separability."""

import numpy as np
import pytest

from drift import DomainError
from drift.data import class_templates, generate_synthetic_dataset


def test_same_seed_bitwise_identical():
    a_tr, a_ev = generate_synthetic_dataset(4, 8, 10, seed=5)
    b_tr, b_ev = generate_synthetic_dataset(4, 8, 10, seed=5)
    assert a_tr.x.tobytes() == b_tr.x.tobytes()
    assert a_ev.x.tobytes() == b_ev.x.tobytes()
    assert np.array_equal(a_tr.y, b_tr.y)


def test_different_seeds_differ():
    a_tr, _ = generate_synthetic_dataset(4, 8, 10, seed=5)
    b_tr, _ = generate_synthetic_dataset(4, 8, 10, seed=6)
    assert a_tr.x.tobytes() != b_tr.x.tobytes()


def test_split_ids_disjoint():
    tr, ev = generate_synthetic_dataset(10, 16, 40, seed=0)
    assert len(set(tr.ids) & set(ev.ids)) == 0
    assert len(set(tr.ids)) == len(tr)
    assert len(set(ev.ids)) == len(ev)


def test_pixel_range_and_shapes():
    tr, ev = generate_synthetic_dataset(10, 16, 40, seed=0)
    assert tr.x.shape == (400, 3, 16, 16)
    assert ev.x.shape == (200, 3, 16, 16)
    for s in (tr, ev):
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0
        assert set(np.unique(s.y)) == set(range(10))


def test_nearest_template_oracle():
    # a brute-force matched-filter classifier witnesses separability
    tr, ev = generate_synthetic_dataset(10, 16, 40, seed=0)
    flat_t = class_templates(10, 16, seed=0).reshape(10, -1)
    flat_x = ev.x.reshape(len(ev), -1)
    d2 = ((flat_x[:, None, :] - flat_t[None, :, :]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == ev.y).mean() >= 0.90


@pytest.mark.parametrize("n_per_class", [0, -1])
def test_empty_split_rejected(n_per_class):
    with pytest.raises(DomainError, match="n_per_class must be at least 1"):
        generate_synthetic_dataset(2, 8, n_per_class, 0)


def test_degenerate_args_raise():
    with pytest.raises(DomainError):
        generate_synthetic_dataset(1, 16, 10, seed=0)
    with pytest.raises(DomainError):
        generate_synthetic_dataset(4, 4, 10, seed=0)
