"""The factorised batch layout scores exactly like its per-row expansion.

``rank_many`` hands the model each announcement's pump history once, plus
a ``seq_index`` from candidate rows to histories; training and
``predict_scores`` keep one history per row.  Both layouts must give
bit-identical logits, eager and compiled, for every deep ranker — the
sequence encoders run on R histories instead of B rows, and nothing else
may change.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DEEP_MODEL_NAMES, Batch, SNNConfig, make_model
from repro.nn import compile_inference, no_grad

CONFIG = SNNConfig(
    n_channels=5, n_coin_ids=13, n_numeric=7, seq_len=8, n_seq_numeric=6
)
PAD_ID = CONFIG.n_coin_ids - 1

# One (real positions, candidates) pair per history: full and left-padded
# (down to empty) histories, each shared by 1-50 candidate rows.
HISTORIES = st.lists(
    st.tuples(
        st.one_of(st.just(CONFIG.seq_len),
                  st.integers(0, CONFIG.seq_len - 1)),
        st.integers(1, 50),
    ),
    min_size=1, max_size=8,
)


def factorised_batch(histories, seed: int) -> Batch:
    rng = np.random.default_rng(seed)
    r = len(histories)
    seq_ids = rng.integers(0, PAD_ID, size=(r, CONFIG.seq_len))
    mask = np.ones((r, CONFIG.seq_len))
    for i, (real, _) in enumerate(histories):
        mask[i, real:] = 0.0
        seq_ids[i, real:] = PAD_ID
    counts = [n for _, n in histories]
    rows = sum(counts)
    return Batch(
        channel_idx=rng.integers(0, CONFIG.n_channels, size=rows),
        coin_idx=rng.integers(0, PAD_ID, size=rows),
        numeric=rng.normal(size=(rows, CONFIG.n_numeric)),
        seq_coin_idx=seq_ids,
        seq_numeric=rng.normal(
            size=(r, CONFIG.seq_len, CONFIG.n_seq_numeric)
        ) * mask[:, :, None],
        seq_mask=mask,
        label=np.zeros(rows),
        # Rows need not be grouped by history.
        seq_index=rng.permutation(np.repeat(np.arange(r), counts)),
    )


def per_row(batch: Batch) -> Batch:
    """The same batch with every row carrying its own copy of its history."""
    index = batch.seq_index
    return replace(batch, seq_coin_idx=batch.seq_coin_idx[index],
                   seq_numeric=batch.seq_numeric[index],
                   seq_mask=batch.seq_mask[index], seq_index=None)


@pytest.fixture(scope="module", params=DEEP_MODEL_NAMES)
def model_and_plan(request):
    model = make_model(request.param, CONFIG, seed=5)
    model.eval()
    return model, compile_inference(model)


@given(histories=HISTORIES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_factorised_scores_match_per_row_expansion(model_and_plan,
                                                   histories, seed):
    model, plan = model_and_plan
    factorised = factorised_batch(histories, seed)
    rows = len(factorised)
    eager, compiled = [], []
    for batch in (factorised, per_row(factorised)):
        # The layout rank_many feeds the model (see Batch.pad_singletons).
        batch = batch.pad_singletons()
        with no_grad():
            eager.append(model(batch).numpy()[:rows])
        compiled.append(plan.logits(batch)[:rows].copy())
    assert np.array_equal(eager[0], eager[1])
    assert np.array_equal(compiled[0], compiled[1])
    assert np.array_equal(compiled[0], eager[0])
