"""``repro gateway`` boots from the data source and the artifact alone.

The artifact carries the pump histories serving seeds from (schema v3),
so the gateway runs neither the §3 collection pipeline nor the message
generator — and still ranks bit for bit like an in-process service bound
to the training dataset.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.gateway import GatewayClient
from repro.serving import Announcement, PredictionService
from tests.resilience.test_recovery import _LineReader

#: ``repro gateway`` with ``collect`` and message generation made fatal.
_BOOT_WITHOUT_COLLECT = """
import sys

import repro.data
import repro.data.pipeline
from repro.cli import main
from repro.simulation.messages import MessageGenerator


def refuse(*args, **kwargs):
    raise AssertionError("the gateway boot ran collect or generated messages")


repro.data.collect = repro.data.pipeline.collect = refuse
MessageGenerator.generate_all = refuse
sys.exit(main(sys.argv[1:]))
"""


def test_gateway_boots_without_collect_or_messages(tiny_registry,
                                                   tiny_source,
                                                   tiny_collection,
                                                   test_positives, tmp_path):
    artifact = tiny_registry.resolve("snn")
    script = tmp_path / "boot.py"
    script.write_text(_BOOT_WITHOUT_COLLECT)
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-u", str(script), "gateway",
         "--scale", "tiny", "--seed", "7", "--load", str(artifact),
         "--registry", str(tiny_registry.root),
         "--host", "127.0.0.1", "--port", "0", "--drain-s", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    try:
        reader = _LineReader(proc)
        line = reader.wait_for("gateway listening on http://")
        url = line.split("listening on ", 1)[1].split()[0]
        in_process = PredictionService.from_artifact(
            artifact, tiny_source, tiny_collection.dataset)
        with GatewayClient(url) as client:
            for positive in test_positives[:3]:
                sentinel = Announcement(positive.channel_id, -1, 0, "BTC",
                                        positive.time)
                assert client.rank(sentinel).ranking == \
                    in_process.rank_one(sentinel).ranking
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    assert "AssertionError" not in "".join(reader.seen)
