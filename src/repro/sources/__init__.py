"""repro.sources — the data-plane abstraction between raw data and the
pipeline.

The rest of the system (features, core, serving, registry) consumes the
protocols in :mod:`repro.sources.base`; the backends here implement them:

* :class:`SyntheticWorldSource` — the simulator, adapted bit-for-bit;
* :class:`FileDatasetSource` — recorded CSV/JSONL dumps (see ``repro
  ingest``).

Every consumer takes one of these backends; ``parse_source_spec``
resolves the CLI's ``--source`` flag (``synthetic`` or
``file:<dump-dir>``) into one.
"""

from __future__ import annotations

from repro.sources.base import (
    ChannelDirectory,
    CoinCatalog,
    DataSource,
    MarketDataSource,
    MessageFeed,
    SourceDataError,
)
from repro.sources.filedata import FileDatasetSource
from repro.sources.ingest import export_synthetic_dump, ingest_raw
from repro.sources.synthetic import SyntheticWorldSource


def parse_source_spec(spec: str, *, config=None) -> DataSource:
    """Resolve a ``--source`` specifier into a backend.

    ``synthetic`` generates a world from ``config`` (defaulting to the
    small scale); ``synthetic+phases`` additionally attaches the
    accumulation/ignition phase overlays (see
    :mod:`repro.simulation.phases`); ``file:<dir>`` loads a recorded
    dump.
    """
    spec = (spec or "synthetic").strip()
    if spec == "synthetic":
        from repro.simulation.world import SyntheticWorld

        return SyntheticWorldSource(SyntheticWorld.generate(config))
    if spec == "synthetic+phases":
        from repro.simulation.phases import generate_phase_world

        return SyntheticWorldSource(generate_phase_world(config))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not path:
            raise SourceDataError("--source file: needs a dump directory path")
        return FileDatasetSource(path)
    raise SourceDataError(
        f"unknown source spec {spec!r}; expected 'synthetic', "
        f"'synthetic+phases' or 'file:<dir>'"
    )


__all__ = [
    "ChannelDirectory",
    "CoinCatalog",
    "DataSource",
    "FileDatasetSource",
    "MarketDataSource",
    "MessageFeed",
    "SourceDataError",
    "SyntheticWorldSource",
    "export_synthetic_dump",
    "ingest_raw",
    "parse_source_spec",
]
