"""Replay sources and the ordered message stream."""

import pytest

from repro.serving import MessageStream, ReplaySource
from repro.types import Message


def _msg(message_id, channel_id, time, text="hello"):
    return Message(message_id, channel_id, float(time), text, "generic")


class TestReplaySource:
    def test_sorts_by_time_then_channel_then_id(self):
        messages = [
            _msg(2, 5, 3.0), _msg(0, 9, 1.0), _msg(1, 2, 3.0), _msg(3, 2, 2.0)
        ]
        replayed = list(ReplaySource(messages))
        assert [m.message_id for m in replayed] == [0, 3, 1, 2]

    def test_window_is_half_open(self):
        messages = [_msg(i, 0, t) for i, t in enumerate((0.0, 1.0, 2.0, 3.0))]
        replayed = list(ReplaySource(messages, start=1.0, stop=3.0))
        assert [m.time for m in replayed] == [1.0, 2.0]

    def test_channel_filter(self):
        messages = [_msg(0, 1, 0.0), _msg(1, 2, 1.0), _msg(2, 1, 2.0)]
        replayed = list(ReplaySource(messages, channel_ids=[1]))
        assert [m.message_id for m in replayed] == [0, 2]


class TestMessageStream:
    def test_counts_consumed(self):
        stream = MessageStream.replay([_msg(0, 1, 0.0), _msg(1, 1, 1.0)])
        assert len(list(stream)) == 2
        assert stream.consumed == 2

    def test_rejects_backwards_time(self):
        class Unsorted:
            def __iter__(self):
                return iter([_msg(0, 1, 5.0), _msg(1, 1, 4.0)])

        stream = MessageStream(Unsorted())
        with pytest.raises(ValueError, match="backwards"):
            list(stream)

    def test_replay_from_world(self, tiny_world):
        stream = MessageStream.replay(tiny_world, start=100.0, stop=200.0)
        times = [m.time for m in stream]
        assert times == sorted(times)
        assert all(100.0 <= t < 200.0 for t in times)
