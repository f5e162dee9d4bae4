"""repro — reproduction of "Sequence-Based Target Coin Prediction for
Cryptocurrency Pump-and-Dump" (Hu et al., SIGMOD 2023).

Subpackages
-----------
``repro.nn``
    Numpy autograd framework (Tensor, layers, RNNs, TCN, positional
    attention, optimizers) — the PyTorch substitute.
``repro.ml``
    Classic ML from first principles (LR, RF, TF-IDF, mean encoding,
    metrics) — the scikit-learn substitute.
``repro.text``
    Tokenization, word2vec (SkipGram/CBoW), lexicon sentiment, keyword
    filtering — the gensim/VADER substitute.
``repro.simulation``
    The synthetic world: coins, markets, channels, events, messages — the
    Telegram/Binance/CoinGecko substitute.
``repro.sources``
    The data-plane abstraction: backend protocols, the synthetic-world
    adapter, the file-backed dump loader and ``repro ingest``.
``repro.data``
    The §3 data-collection pipeline: exploration, detection, sessions,
    dataset construction.
``repro.features``
    §5.1 feature generation.
``repro.core``
    §5-§6: SNN, baselines, training, HR@k evaluation, cold-start fix.
``repro.registry``
    Model lifecycle: schema-versioned predictor artifacts and the
    versioned model registry (train once, serve anywhere).
``repro.serving``
    Real-time streaming prediction service over the trained predictor.
``repro.gateway``
    Versioned HTTP/JSON serving API over the prediction service and the
    model registry, plus the Python client SDK.
``repro.forecasting``
    §7: sentiment-enhanced BTC price forecasting.
``repro.analysis``
    §4: observational studies and figure data.

Quickstart
----------
>>> from repro.simulation import SyntheticWorld
>>> from repro.sources import SyntheticWorldSource
>>> from repro.data import collect
>>> world = SyntheticWorld.generate()          # doctest: +SKIP
>>> result = collect(SyntheticWorldSource(world))  # doctest: +SKIP
>>> result.table2()                            # doctest: +SKIP
"""

__version__ = "1.0.0"

from repro.utils.config import ReproConfig, Scale, get_scale

__all__ = ["ReproConfig", "Scale", "get_scale", "__version__"]
