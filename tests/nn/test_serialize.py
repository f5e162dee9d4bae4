"""Tests for model save/load round-trips."""

import json

import numpy as np
import pytest

from repro.nn import MLP, Tensor
from repro.nn.serialize import read_state_dict, save_state_dict


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSerialization:
    def test_roundtrip_preserves_outputs(self, rng, tmp_path):
        model = MLP([4, 8, 1], rng)
        path = tmp_path / "model.npz"
        save_state_dict(model.state_dict(), path)
        clone = MLP([4, 8, 1], np.random.default_rng(99))
        clone.load_state_dict(read_state_dict(path))
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_manifest_contents(self, rng, tmp_path):
        model = MLP([4, 8, 1], rng)
        path = tmp_path / "model.npz"
        save_state_dict(model.state_dict(), path)
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
        assert manifest["n_parameters"] == model.num_parameters()
        assert set(manifest["names"]) == set(model.state_dict())

    def test_architecture_mismatch_rejected(self, rng, tmp_path):
        model = MLP([4, 8, 1], rng)
        path = tmp_path / "model.npz"
        save_state_dict(model.state_dict(), path)
        wrong = MLP([4, 16, 1], np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            wrong.load_state_dict(read_state_dict(path))

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            read_state_dict(path)

    def test_creates_parent_dirs(self, rng, tmp_path):
        model = MLP([2, 2, 1], rng)
        nested = tmp_path / "a" / "b" / "model.npz"
        save_state_dict(model.state_dict(), nested)
        assert nested.exists()
