"""Tests for the utils substrate: hash RNG, config, time, tabulation,
BLAS threads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.utils import (
    Clock,
    ReproConfig,
    Scale,
    format_table,
    hash_normal,
    hash_uniform,
    hash_uint64,
    to_timestamp,
)
from repro.utils.hashrng import (
    _splitmix64,
    extend_hash,
    hash_choice,
    normal_from_bits,
)


def _broadcast_fold(*keys):
    """Reference: broadcast every key to the full shape, then fold."""
    arrays = np.broadcast_arrays(*[np.asarray(k) for k in keys])
    with np.errstate(over="ignore"):
        acc = np.zeros(arrays[0].shape, dtype=np.uint64)
        for arr in arrays:
            acc = _splitmix64(acc ^ arr.astype(np.int64).view(np.uint64))
    return acc


@st.composite
def _key_tuples(draw):
    """1-6 integer keys: scalars, (N, 1), (1, H), (N, H), (H,) and (1, 1)."""
    n = draw(st.integers(min_value=1, max_value=4))
    h = draw(st.integers(min_value=1, max_value=5))
    shapes = {"col": (n, 1), "row": (1, h), "grid": (n, h), "vec": (h,),
              "unit": (1, 1)}
    kinds = draw(st.lists(st.sampled_from(["scalar", *shapes]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [int(rng.integers(-2**62, 2**62)) if kind == "scalar"
            else rng.integers(-2**62, 2**62, size=shapes[kind])
            for kind in kinds]


class TestHashRng:
    def test_deterministic(self):
        assert int(hash_uint64(1, 2, 3)) == int(hash_uint64(1, 2, 3))

    def test_distinct_keys_distinct_values(self):
        a = hash_uint64(np.arange(10_000))
        assert len(np.unique(a)) == 10_000

    def test_key_order_matters(self):
        assert int(hash_uint64(1, 2)) != int(hash_uint64(2, 1))

    def test_broadcasting(self):
        out = hash_uniform(np.arange(4)[:, None], np.arange(3)[None, :])
        assert out.shape == (4, 3)

    def test_uniform_range_and_moments(self):
        u = hash_uniform(7, np.arange(200_000))
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1 / 12) < 0.01

    def test_normal_moments(self):
        z = hash_normal(3, np.arange(200_000))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_negative_keys_supported(self):
        assert np.isfinite(hash_uniform(-5, -10))

    def test_requires_keys(self):
        with pytest.raises(ValueError):
            hash_uint64()

    def test_choice_in_range(self):
        c = hash_choice(7, np.arange(1000))
        assert (c >= 0).all() and (c < 7).all()

    def test_choice_invalid_n(self):
        with pytest.raises(ValueError):
            hash_choice(0, 1)

    @settings(max_examples=60, deadline=None)
    @given(keys=_key_tuples(), data=st.data())
    def test_property_extend_hash_continues_a_prefix(self, keys, data):
        split = data.draw(st.integers(min_value=0, max_value=len(keys)))
        prefix = hash_uint64(*keys[:split]) if split else np.uint64(0)
        extended = extend_hash(prefix, *keys[split:])
        np.testing.assert_array_equal(extended, hash_uint64(*keys))
        np.testing.assert_array_equal(normal_from_bits(extended),
                                      hash_normal(*keys))

    @settings(max_examples=60, deadline=None)
    @given(keys=_key_tuples())
    def test_property_matches_broadcast_fold(self, keys):
        out = hash_uint64(*keys)
        expected = _broadcast_fold(*keys)
        assert np.shape(out) == expected.shape
        np.testing.assert_array_equal(out, expected)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(min_value=-2**40, max_value=2**40),
           b=st.integers(min_value=-2**40, max_value=2**40))
    def test_property_stable_and_bounded(self, a, b):
        u1 = float(hash_uniform(a, b))
        u2 = float(hash_uniform(a, b))
        assert u1 == u2
        assert 0.0 <= u1 < 1.0


class TestConfig:
    def test_paper_scale_larger_than_small(self):
        small, paper = ReproConfig.small(), ReproConfig.paper()
        assert paper.n_coins > small.n_coins
        assert paper.n_events > small.n_events

    def test_for_scale(self):
        assert ReproConfig.for_scale(Scale.PAPER).n_events == 709
        assert ReproConfig.for_scale(Scale.SMALL).n_events < 709

    def test_with_overrides(self):
        config = ReproConfig.small().with_(seed=99)
        assert config.seed == 99
        assert config.n_coins == ReproConfig.small().n_coins

    def test_frozen(self):
        with pytest.raises(Exception):
            ReproConfig.small().seed = 1

    def test_env_scale(self, monkeypatch):
        from repro.utils import get_scale

        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() is Scale.PAPER
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            get_scale()


class TestTime:
    def test_epoch_rendering(self):
        assert to_timestamp(0) == "2019-01-01 00:00"

    def test_day_rollover(self):
        assert to_timestamp(25, 30) == "2019-01-02 01:30"

    def test_year_rollover(self):
        assert to_timestamp(365 * 24) == "2020-01-01 00:00"

    def test_leap_year_2020(self):
        # 2020-02-29 exists: 2019 has 365 days; Feb 29 2020 is day 424.
        assert to_timestamp((365 + 59) * 24) == "2020-02-29 00:00"

    def test_clock_monotone(self):
        clock = Clock()
        clock.advance(5)
        assert clock.hour == 5
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestTabulate:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in lines[2]

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_title_prepended(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"


class TestBlasThreads:
    def test_limit_takes_effect(self):
        # In a fresh process: the test process keeps its own threads.
        script = textwrap.dedent("""
            import ctypes
            from repro.utils.blas import _loaded_openblas, limit_blas_threads
            if not limit_blas_threads(1):
                raise SystemExit("not-openblas")
            library = ctypes.CDLL(_loaded_openblas()[0])
            getter = next(getattr(library, name) for name in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads",
            ) if hasattr(library, name))
            getter.restype = ctypes.c_int
            print(getter())
        """)
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        if "not-openblas" in done.stderr:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"
