"""Shared fixtures for the serving tests.

The tiny world, its data-source adapter and its collection come from
``tests/conftest.py``; the serving suite adds one predictor trained for
two epochs through :func:`~repro.core.train_predictor`, built once per
session.
"""

from __future__ import annotations

import pytest

from repro.core import train_predictor


@pytest.fixture(scope="session")
def tiny_predictor(tiny_source, tiny_collection):
    return train_predictor(tiny_source, tiny_collection, epochs=2, seed=0)
