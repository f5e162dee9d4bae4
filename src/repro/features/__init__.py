"""repro.features — feature generation for target coin prediction (§5.1)."""

from repro.features.coin import (
    COIN_FEATURE_NAMES,
    STABLE_LEAD_HOURS,
    coin_feature_matrix,
)
from repro.features.market_windows import (
    MARKET_FEATURE_NAMES,
    WINDOW_HOURS,
)
from repro.features.sequence import (
    N_SEQUENCE_FEATURES,
    SEQUENCE_NUMERIC_NAMES,
    SequenceFeatureCache,
    SequenceFeatures,
    encode_history,
    pad_coin_id,
)
from repro.features.assembler import (
    AssembledDataset,
    AssembledSplit,
    CHANNEL_FEATURE_NAMES,
    FeatureAssembler,
    NUMERIC_FEATURE_NAMES,
)

__all__ = [
    "COIN_FEATURE_NAMES",
    "STABLE_LEAD_HOURS",
    "coin_feature_matrix",
    "MARKET_FEATURE_NAMES",
    "WINDOW_HOURS",
    "SEQUENCE_NUMERIC_NAMES",
    "N_SEQUENCE_FEATURES",
    "SequenceFeatures",
    "SequenceFeatureCache",
    "encode_history",
    "pad_coin_id",
    "FeatureAssembler",
    "AssembledDataset",
    "AssembledSplit",
    "NUMERIC_FEATURE_NAMES",
    "CHANNEL_FEATURE_NAMES",
]
