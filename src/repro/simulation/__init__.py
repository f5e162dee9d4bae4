"""repro.simulation — the synthetic world substrate.

Replaces the paper's external data sources (Telegram, Binance klines,
CoinGecko, PumpOlymp) with a deterministic generative model; see DESIGN.md
§2 for the substitution rationale.
"""

from repro.simulation.coins import CoinUniverse
from repro.simulation.market import (
    MOOD_PRICE_LAG,
    MarketSimulator,
    PumpProfile,
)
from repro.simulation.channels import ChannelPopulation, NoiseChannel, PumpChannel
from repro.simulation.events import EventLog, EventScheduler, PumpEvent
from repro.simulation.messages import MessageGenerator
from repro.simulation.phases import (
    PhaseProfile,
    generate_phase_world,
    phase_profiles_for,
)
from repro.simulation.world import SyntheticWorld

__all__ = [
    "PhaseProfile",
    "generate_phase_world",
    "phase_profiles_for",
    "CoinUniverse",
    "MarketSimulator",
    "PumpProfile",
    "MOOD_PRICE_LAG",
    "ChannelPopulation",
    "PumpChannel",
    "NoiseChannel",
    "EventScheduler",
    "EventLog",
    "PumpEvent",
    "MessageGenerator",
    "SyntheticWorld",
]
