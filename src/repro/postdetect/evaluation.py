"""Post-detection evaluation: delay relative to the pump instant.

The paper argues post-detection "fails to meet practical needs, as P&Ds
typically occur rapidly, leaving no time to alert investors."  Here we make
that quantitative: for every simulated event, when does the anomaly
detector first fire relative to the pump minute — and how does that compare
with the price peak (≈2 minutes in) and the one-hour lead the target-coin
task guarantees?
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.postdetect.anomaly import AnomalyDetector
from repro.simulation.world import SyntheticWorld


@dataclass
class DelayStudy:
    """Detection delays (minutes after the pump instant) across events."""

    delays: list[float] = field(default_factory=list)
    misses: int = 0
    false_alarm_rate: float = 0.0  # alarms per scanned quiet hour

    @property
    def n_detected(self) -> int:
        return len(self.delays)

    def median_delay(self) -> float:
        if not self.delays:
            return float("nan")
        return float(np.median(self.delays))

def evaluate_detector(detector: AnomalyDetector, coin_id: int,
                      pump_time: float, scan_lead_minutes: int = 30,
                      scan_tail_minutes: int = 30) -> float | None:
    """Delay (minutes, relative to pump time) of the first alarm near one
    event; negative = early (pre-pump hikes), None = missed entirely."""
    start_hour = pump_time - scan_lead_minutes / 60.0
    alarm = detector.first_alarm(
        coin_id, start_hour, scan_lead_minutes + scan_tail_minutes
    )
    if alarm is None:
        return None
    return float(alarm.minute - scan_lead_minutes)


def detection_delay_study(world: SyntheticWorld,
                          detector: AnomalyDetector | None = None,
                          max_events: int = 80,
                          quiet_hours: int = 20) -> DelayStudy:
    """Run the detector over events and quiet periods.

    ``false_alarm_rate`` is estimated on randomly chosen quiet (no-event)
    windows so the delay numbers can be read against a noise floor.
    """
    detector = detector or AnomalyDetector(world.market)
    study = DelayStudy()
    events = [
        e for e in world.events.events if e.exchange_id == 0
    ][:max_events]
    for event in events:
        delay = evaluate_detector(detector, event.coin_id, event.time)
        if delay is None:
            study.misses += 1
        else:
            study.delays.append(delay)

    rng = np.random.default_rng(world.config.seed + 777)
    event_coins = {e.coin_id for e in world.events.events}
    quiet_candidates = [
        c for c in range(3, world.coins.n_coins) if c not in event_coins
    ]
    alarms = 0
    for _ in range(quiet_hours):
        coin = int(rng.choice(quiet_candidates))
        hour = float(rng.uniform(500, world.config.horizon_hours - 100))
        alarms += len(detector.scan(coin, hour, 60))
    study.false_alarm_rate = alarms / max(quiet_hours, 1)
    return study
