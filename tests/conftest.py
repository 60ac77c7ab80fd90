"""Session fixtures: the desk dataset and its pretrained base. The shared
helper constructions live in drift_helpers."""

import pytest

from drift.data import generate_synthetic_dataset
from drift.models import build_base_model, pretrain_and_freeze


@pytest.fixture(scope="session")
def desk_data():
    return generate_synthetic_dataset(10, 16, 40, seed=0)


@pytest.fixture(scope="session")
def desk_base(desk_data):
    train, _ = desk_data
    model = build_base_model((3, 16, 16), 10, seed=0)
    return pretrain_and_freeze(model, (train.x, train.y), epochs=30, lr=1e-3)
