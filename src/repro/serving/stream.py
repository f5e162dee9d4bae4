"""Message sources and the timestamp-ordered stream the engine consumes.

A :class:`MessageSource` is anything that yields :class:`Message` objects —
the seam where a live Telegram feed would plug in.  :class:`ReplaySource`
replays an in-memory message list (e.g. a data backend's) in timestamp
order, optionally windowed in time and restricted to a monitored channel
set.  :class:`MessageStream` wraps a source and enforces the engine's one
contract: timestamps never go backwards.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.types import Message


class MessageSource:
    """Interface: an iterable of :class:`Message` in timestamp order."""

    def __iter__(self) -> Iterator[Message]:  # pragma: no cover - interface
        raise NotImplementedError


class ReplaySource(MessageSource):
    """Replay a message list chronologically.

    Parameters
    ----------
    messages:
        Any iterable of messages; sorted internally by ``(time, channel_id,
        message_id)`` so equal-time messages replay deterministically.
    start, stop:
        Half-open replay window ``[start, stop)`` in world hours.
    channel_ids:
        If given, only these channels are replayed (the monitored set — a
        real deployment only reads channels its explorer has joined).
    """

    def __init__(self, messages: Iterable[Message], *,
                 start: float | None = None, stop: float | None = None,
                 channel_ids: Sequence[int] | None = None):
        allowed = set(channel_ids) if channel_ids is not None else None
        kept = [
            m for m in messages
            if (start is None or m.time >= start)
            and (stop is None or m.time < stop)
            and (allowed is None or m.channel_id in allowed)
        ]
        kept.sort(key=lambda m: (m.time, m.channel_id, m.message_id))
        self._messages = kept

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)


class MessageStream:
    """A validated, countable view over a message source.

    Iterating yields the source's messages while enforcing non-decreasing
    timestamps — the online sessionizer's correctness depends on it — and
    counting what passed through (``consumed``).
    """

    def __init__(self, source: MessageSource):
        self.source = source
        self.consumed = 0

    @classmethod
    def replay(cls, source, *,
               start: float | None = None, stop: float | None = None,
               channel_ids: Sequence[int] | None = None) -> "MessageStream":
        """A stream replaying a data source's (or raw list's) messages.

        ``source`` is a :class:`repro.sources.DataSource` backend or a
        plain message sequence.
        """
        feed = getattr(source, "messages", None)
        messages = feed() if callable(feed) else source
        return cls(ReplaySource(messages, start=start, stop=stop,
                                channel_ids=channel_ids))

    def __iter__(self) -> Iterator[Message]:
        last_time: float | None = None
        for message in self.source:
            if last_time is not None and message.time < last_time:
                raise ValueError(
                    f"stream went backwards in time: {message.time} after "
                    f"{last_time} (message {message.message_id})"
                )
            last_time = message.time
            self.consumed += 1
            yield message
