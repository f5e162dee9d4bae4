"""Backend-neutral data-plane types.

:class:`Message` is the unit every feed backend yields — the synthetic
Telegram generator, a recorded CSV/JSONL dump (:mod:`repro.sources`) or a
future live connector.  It used to be defined inside
``repro.simulation.messages``, which forced the streaming service to
import the simulator just to type its inputs; it now lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Message kinds; the first five are ground-truth "pump messages" (§3.2).
PUMP_KINDS = frozenset({"announcement", "countdown", "final_call", "release", "review"})
ALL_KINDS = PUMP_KINDS | {"vip_release", "topic", "sentiment", "invite", "generic"}

OCR_IMAGE_TEXT = "[OCR-proof image]"


@dataclass(frozen=True)
class Message:
    """A single Telegram message, whatever backend produced it."""

    message_id: int
    channel_id: int
    time: float          # fractional hours since the dataset epoch
    text: str
    kind: str            # one of ALL_KINDS
    event_id: int = -1   # owning pump event, if known (-1 for real data)

    @property
    def is_pump_message(self) -> bool:
        """Ground-truth pump-message label (§3.2's annotation)."""
        return self.kind in PUMP_KINDS
