"""End-to-end data-collection pipeline (Figure 2, left half).

``collect(source)`` chains exploration → message collection → keyword
filtering + detection → sessionization → sample extraction → dataset
construction, returning every intermediate artefact so analyses and
benchmarks can inspect each stage.  ``source`` is any
:class:`repro.sources.DataSource` backend — the synthetic world adapter
or a recorded file dump.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import TargetCoinDataset
from repro.data.detection import DetectionOutcome, run_detection_pipeline
from repro.data.exploration import ChannelExplorer, ExplorationResult
from repro.data.sessions import (
    PnDSample,
    Session,
    dataset_statistics,
    extract_samples,
    sessionize,
)
from repro.sources.base import DataSource


@dataclass
class CollectionResult:
    """All artefacts of the data-collection stage."""

    exploration: ExplorationResult
    detection: DetectionOutcome
    sessions: list[Session]
    samples: list[PnDSample]
    dataset: TargetCoinDataset

    def table2(self) -> dict[str, int]:
        """Extracted dataset statistics (paper Table 2)."""
        return dataset_statistics(self.samples)


def collect(source: DataSource, max_hops: int = 2,
            n_label: int = 1600) -> CollectionResult:
    """Run the full §3 pipeline against a data source."""
    explorer = ChannelExplorer(source.channels, source.messages(),
                               max_hops=max_hops)
    exploration = explorer.explore(source.channels.seed_channel_ids())
    collected = explorer.collect_messages(exploration)

    exchange_names = list(source.exchange_names)
    detection = run_detection_pipeline(
        collected,
        coin_symbols=source.coins.symbols,
        exchange_names=exchange_names,
        n_label=n_label,
        seed=source.seed,
    )
    sessions = sessionize(detection.detected)
    samples = extract_samples(sessions, source.coins.symbols, exchange_names)
    dataset = TargetCoinDataset.build(source, samples)
    return CollectionResult(
        exploration=exploration,
        detection=detection,
        sessions=sessions,
        samples=samples,
        dataset=dataset,
    )
