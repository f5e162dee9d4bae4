"""Untimed prep: the world, the served model and the reference outputs.

Runs once per (scale, world, program) and is cached under
``.perfbench_work/`` in the checkout: the cache key holds a digest of
every file under ``src/``, so a changed program trains its own artifact
and gets its own references.  It trains the served SNN with ``repro train``'s defaults
through the CLI, replays the held-out test period in process to get the
announcement list and the reference alert of each announcement, and
ranks every announcement's ``coin_id=-1`` sentinel through a fresh
``PredictionService``.  Nothing here counts toward any metric.

The world is fixed (``WORLD_SEED``); a run's ``--seed`` only orders its
traffic.  Training one small-scale SNN takes ~40 s on a 2-core box, and a
different world per seed would change hit rates and alert counts from
run to run.

Run directly as ``python3 perfbench/prep.py <scale> <dir>`` it builds the
references into ``<dir>``, which must already hold ``artifact/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORLD_SEED = 7
SCALES = ("tiny", "small")


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def config(scale: str):
    from repro.utils import ReproConfig

    return {"tiny": ReproConfig.tiny,
            "small": ReproConfig.small}[scale](seed=WORLD_SEED)


def program_digest() -> str:
    """Digest of the program under test (every file under ``src/``) and
    of the files here that shape the references."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts and p.suffix != ".pyc")
    for path in files + [HERE / "prep.py", HERE / "checks.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure(scale: str) -> Path:
    """The prep directory for ``scale`` and this program, building it on
    first use."""
    target = WORK / f"prep-{scale}-world{WORLD_SEED}-{program_digest()}"
    if (target / "refs.json").exists():
        return target
    staging = WORK / f"staging-{scale}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "repro", "train", "--scale", scale,
             "--seed", str(WORLD_SEED), "--save", str(staging / "artifact")],
            env=child_env(), cwd=staging, check=True, timeout=600,
            stdout=subprocess.DEVNULL,
        )
        subprocess.run([sys.executable, __file__, scale, str(staging)],
                       env=child_env(), check=True, timeout=600)
        try:
            staging.rename(target)
        except OSError:
            if not (target / "refs.json").exists():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def build_references(scale: str, out: Path) -> None:
    from repro.data import collect
    from repro.serving import (
        Announcement,
        CollectingSink,
        PredictionService,
        replay_test_period,
    )
    from repro.sources import parse_source_spec

    from checks import encode_ranking

    source = parse_source_spec("synthetic", config=config(scale))
    collection = collect(source)
    artifact = out / "artifact"
    sink = CollectingSink()
    replay = replay_test_period(source, collection, artifact, sinks=(sink,))
    service = PredictionService.from_artifact(artifact, source,
                                              collection.dataset)
    alerts = []
    for alert in sink.alerts:
        a = alert.announcement
        sentinel = Announcement(a.channel_id, -1, a.exchange_id, a.pair,
                                a.time)
        alerts.append({
            "announcement": a.to_payload(),
            "replay": encode_ranking(alert.ranking),
            "sentinel": encode_ranking(service.rank_one(sentinel).ranking),
            "candidates": sorted(int(c) for c in
                                 service.predictor.candidates(a.exchange_id,
                                                              a.time)),
        })
    refs = {"scale": scale, "world_seed": WORLD_SEED,
            "messages": replay.stats.messages, "alerts": alerts}
    (out / "refs.json").write_text(json.dumps(refs))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    build_references(sys.argv[1], Path(sys.argv[2]))
