"""Tests for the §4 analyses and the attention-pattern tools."""

import numpy as np
import pytest

from repro.analysis import (
    channel_level_study,
    classify_patterns,
    cohort_edges,
    coin_level_study,
    dominant_period,
    event_study,
    exchange_distribution,
    render_heatmap,
    semantic_study,
)
from repro.data import collect
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


@pytest.fixture(scope="module")
def samples(world):
    return collect(SyntheticWorldSource(world), n_label=600).samples


class TestCoinLevel:
    def test_cohort_edges_partition(self):
        edges = cohort_edges(100, 4)
        assert edges == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_pumped_coins_are_midcap(self, world, samples):
        study = coin_level_study(world, samples)
        cap = study.summaries["market_cap"]
        top = cap[[k for k in cap if k.startswith("top_1_")][0]]
        # Pumped coins are below the very top cohort by cap ...
        assert cap["pumped"].median < top.median
        # ... but well above the bottom cohort.
        bottom_key = sorted(
            (k for k in cap if k.startswith("top_")),
            key=lambda k: int(k.split("_")[1]),
        )[-1]
        assert cap["pumped"].median > cap[bottom_key].median

    def test_repump_rate_substantial(self, world, samples):
        study = coin_level_study(world, samples)
        assert 0.3 < study.repump_rate < 0.95

    def test_closest_cohort_returns_cohort_name(self, world, samples):
        study = coin_level_study(world, samples)
        assert study.closest_cohort("market_cap").startswith("top_")

    def test_empty_samples_rejected(self, world):
        with pytest.raises(ValueError):
            coin_level_study(world, [])


class TestEventLevel:
    @pytest.fixture(scope="class")
    def study(self, world):
        return event_study(world, max_events=40)

    def test_exchange_distribution_binance_heavy(self, world):
        shares = exchange_distribution(world)
        assert shares["Binance"] == max(shares.values())
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_price_curve_peaks_at_pump(self, study):
        grid = study.minute_grid
        peak_idx = int(np.argmax(study.avg_price_curve))
        assert -5 <= grid[peak_idx] <= 30

    def test_price_rises_into_pump(self, study):
        grid = study.minute_grid
        at = lambda minute: study.avg_price_curve[np.argmin(np.abs(grid - minute))]
        assert at(-60) > at(-60 * 60)  # 1h before > 60h before

    def test_volume_spike_at_pump(self, study):
        grid = study.minute_grid
        pump_region = (grid >= 0) & (grid <= 30)
        early = grid < -65 * 60
        assert study.avg_volume_curve[pump_region].max() > \
            5.0 * study.avg_volume_curve[early].mean()

    def test_pumped_returns_dominate_random(self, study):
        for x in (24, 48, 60):
            assert study.window_returns_pumped[x] > \
                study.window_returns_random[x] + 0.01

    def test_peak_window_near_60(self, study):
        assert study.peak_window() in (36, 48, 60, 72)

    def test_prepump_example_present(self, study):
        assert "volume" in study.prepump_example


class TestChannelLevel:
    def test_homogeneity_ratio_below_one(self, world, samples):
        study = channel_level_study(world, samples, min_history=4)
        for feature, scatter in study.scatters.items():
            assert scatter.homogeneity_ratio < 1.0, feature

    def test_scatter_shapes_align(self, world, samples):
        study = channel_level_study(world, samples, min_history=4)
        for scatter in study.scatters.values():
            assert len(scatter.channel_index) == len(scatter.values)

    def test_requires_history(self, world, samples):
        with pytest.raises(ValueError):
            channel_level_study(world, samples, min_history=10**6)


class TestSemantic:
    def test_ordering_same_channel_highest(self, world, samples):
        study = semantic_study(world, samples, n_pairs=300, seed=0)
        assert study.mean("same_channel") > study.mean("all_coins")

    def test_distributions_bounded(self, world, samples):
        study = semantic_study(world, samples, n_pairs=200, seed=1)
        for sims in study.similarities.values():
            assert (sims <= 1.0 + 1e-9).all() and (sims >= -1.0 - 1e-9).all()


class TestAttentionPatterns:
    def test_proximity_classification(self):
        proximity_head = np.array([[0.7, 0.2, 0.05, 0.05]])
        skip_head = np.array([[0.05, 0.05, 0.2, 0.7]])
        patterns = classify_patterns([proximity_head, skip_head])
        assert patterns[0].is_proximity
        assert patterns[1].is_skip_correlated

    def test_mean_position_ordering(self):
        early = np.array([[0.9, 0.1, 0.0]])
        late = np.array([[0.0, 0.1, 0.9]])
        patterns = classify_patterns([early, late])
        assert patterns[0].mean_position < patterns[1].mean_position

    def test_dominant_period_detects_cycles(self):
        n = 24
        head = np.zeros(n)
        head[::6] = 1.0  # period 6
        period = dominant_period(head / head.sum())
        assert period is not None
        assert abs(period - 6.0) < 1.5

    def test_render_heatmap_lines(self):
        art = render_heatmap(np.random.default_rng(0).random((3, 10)))
        assert len(art.splitlines()) == 3

    def test_invalid_heatmap_shape(self):
        with pytest.raises(ValueError):
            classify_patterns([np.zeros(5)])
