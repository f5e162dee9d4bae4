"""Split-assembly wall time — the vectorized FeatureAssembler.

Assembling the model-ready tensors for every (channel, candidate, time)
row used to be an O(rows) Python loop over market queries; it is now
O(lists) batched numpy calls plus an LRU of encoded channel histories.
This benchmark times a full ``FeatureAssembler.assemble()`` over the
session world so the trajectory of that cost is tracked alongside the
serving numbers.
"""

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.features import FeatureAssembler


def test_feature_assembly(benchmark, source, collection):
    def assemble():
        return FeatureAssembler(source, collection.dataset).assemble()

    assembled = run_once(benchmark, assemble)
    rows = len(assembled.train) + len(assembled.validation) + len(assembled.test)
    seconds = benchmark.stats.stats.mean
    report(
        "bench_feature_assembly",
        f"assembled {rows} rows "
        f"({len(assembled.train)}/{len(assembled.validation)}"
        f"/{len(assembled.test)} train/val/test) in {seconds:.3f}s "
        f"({rows / seconds:,.0f} rows/s)",
    )
    assert rows > 0
    # Assembly of the benchmark world must stay well inside interactive time.
    assert seconds < 120.0
