"""SyntheticWorldSource — the simulator adapted to the data-plane protocols.

A thin, zero-copy adapter: ``market``, ``coins`` and ``channels`` are the
world's own objects (which already satisfy the protocols), so features,
rankings and HR@k computed through the adapter are bit-for-bit identical
to the pre-refactor direct-world path — the parity suite in
``tests/integration/test_source_parity.py`` pins this.
"""

from __future__ import annotations

from typing import Sequence

from repro.markets import EXCHANGE_NAMES
from repro.sources.base import DataSource
from repro.types import Message


class SyntheticWorldSource(DataSource):
    """Adapt a generated :class:`~repro.simulation.world.SyntheticWorld`."""

    kind = "synthetic"

    def __init__(self, world):
        # Lazy: the data plane imports the simulator only to adapt one.
        from repro.simulation.world import SyntheticWorld

        if not isinstance(world, SyntheticWorld):
            raise TypeError(
                f"SyntheticWorldSource wraps a SyntheticWorld, got "
                f"{type(world).__name__!r}"
            )
        self.world = world
        self.market = world.market
        self.coins = world.coins
        self.channels = world.channels
        config = world.config
        self.seed = config.seed
        self.sequence_length = config.sequence_length
        self.max_negatives_per_event = config.max_negatives_per_event
        self.n_exchanges = config.n_exchanges
        self.exchange_names: Sequence[str] = EXCHANGE_NAMES[: config.n_exchanges]

    def messages(self) -> Sequence[Message]:
        return self.world.messages

    def fingerprint(self) -> str:
        """Worlds are pure functions of their config — hash the knobs.

        Phase-aware worlds (accumulation/ignition overlays attached, see
        :mod:`repro.simulation.phases`) produce different candles from
        the same config, so they fingerprint distinctly.
        """
        config = self.world.config
        phases = ",phases=1" if self.market.has_phases else ""
        return (
            f"synthetic:seed={config.seed},coins={config.n_coins},"
            f"events={config.n_events},horizon={config.horizon_hours}"
            f"{phases}"
        )

    def descriptor(self) -> dict:
        config = self.world.config
        return {
            "backend": self.kind,
            "fingerprint": self.fingerprint(),
            "seed": config.seed,
            "n_coins": config.n_coins,
            "n_events": config.n_events,
            "horizon_hours": config.horizon_hours,
            "phases": bool(self.market.has_phases),
        }

    def repro_config(self):
        return self.world.config
