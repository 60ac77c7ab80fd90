"""Synthetic image classification task with a controlled attack margin.

Each class has a fixed spatial template: a smoothed random field shared by a
class pair, offset by +/- half of a signed perturbation pattern of amplitude
PAIR_DELTA. Samples are the template plus white Gaussian texture noise,
clipped to [0,1]. The pair spacing sets the scale at which l_inf attacks
start to flip labels (pattern-aligned movement of eps*sqrt(D) must cross
half the pair distance, PAIR_DELTA*sqrt(D)/2, i.e. eps around PAIR_DELTA/2),
while the noise is small enough that clean accuracy stays near 100%.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import DomainError
from .rng import rng_from

PAIR_DELTA = 0.05
NOISE_SIGMA = 0.1


@dataclass
class Split:
    x: np.ndarray   # [N, C, side, side] in [0, 1]
    y: np.ndarray   # [N] int labels
    ids: np.ndarray  # [N] globally unique sample ids

    def __len__(self):
        return self.x.shape[0]


def as_xy(dataset):
    """(x, y, ids) of a Split or of an (x, y) pair, whose ids are 0..N-1."""
    if isinstance(dataset, Split):
        return dataset.x, dataset.y, dataset.ids
    x, y = dataset
    return np.asarray(x), np.asarray(y), np.arange(len(y))


def _smooth_field(rng, side, channels):
    """Random field box-smoothed to vary on the scale of side/4."""
    raw = rng.uniform(0.0, 1.0, size=(channels, side, side))
    win = max(side // 4, 2)
    sm = uniform_filter(raw, size=(1, win, win), mode="nearest")
    lo, hi = sm.min(), sm.max()
    return 0.35 + 0.3 * (sm - lo) / max(hi - lo, 1e-12)


def class_templates(classes, side, seed, channels=3):
    """Per-class templates, paired: classes (2p, 2p+1) share a base field
    and differ by a signed pattern of amplitude PAIR_DELTA."""
    templates = np.empty((classes, channels, side, side))
    for p in range((classes + 1) // 2):
        rng = rng_from(seed, 31, p)
        base = _smooth_field(rng, side, channels)
        signs = rng.integers(0, 2, size=(channels, side, side)) * 2.0 - 1.0
        delta = 0.5 * PAIR_DELTA * signs
        templates[2 * p] = base - delta
        if 2 * p + 1 < classes:
            templates[2 * p + 1] = base + delta
    return templates


def check_dataset_shape(classes, side, n_per_class):
    """The generator's bounds on the class count, image side and split size."""
    if classes < 2:
        raise DomainError(f"classes must be at least 2, got {classes}")
    if side < 8:
        raise DomainError(f"side must be at least 8, got {side}")
    if n_per_class < 1:
        raise DomainError(f"n_per_class must be at least 1, got {n_per_class}")


def generate_synthetic_dataset(classes, side, n_per_class, seed, channels=3):
    """(train, eval) splits; eval gets n_per_class//2 samples per class.

    Deterministic per seed; train and eval ids are disjoint by construction.
    """
    check_dataset_shape(classes, side, n_per_class)
    templates = class_templates(classes, side, seed, channels)
    n_eval = max(n_per_class // 2, 1)

    def make_split(count, tag, id_base):
        xs = np.empty((classes * count, channels, side, side))
        ys = np.empty(classes * count, dtype=np.int64)
        ids = np.arange(id_base, id_base + classes * count, dtype=np.int64)
        i = 0
        for c in range(classes):
            rng = rng_from(seed, 37, tag, c)
            noise = rng.normal(0.0, NOISE_SIGMA, size=(count, channels, side, side))
            xs[i:i + count] = np.clip(templates[c][None] + noise, 0.0, 1.0)
            ys[i:i + count] = c
            i += count
        return Split(xs, ys, ids)

    train = make_split(n_per_class, 0, 0)
    eval_ = make_split(n_eval, 1, len(train))
    return train, eval_


def nearest_template_accuracy(split, templates):
    """Brute-force matched-filter classifier; separability witness."""
    flat_t = templates.reshape(templates.shape[0], -1)
    flat_x = split.x.reshape(split.x.shape[0], -1)
    d2 = ((flat_x[:, None, :] - flat_t[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    return float((pred == split.y).mean())
