"""Self-test of the benchmark at ``--scale tiny`` (~1 minute).

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced and checks
that every metric ``BENCHMARK.json`` names is emitted with its unit,
that every check passed, and that the ``replay`` and ``rank_observe``
hit rates agree.  Then it runs one workload with ``--corrupt`` and checks
that the corrupted ranking is caught: ``correct`` false, one failure,
a ``success_rate`` below 1.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay", "rank", "rank_observe")


def bench(workload: str, trace: int, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    hit_rates = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, trace)
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            expect(emitted == expected[trace],
                   f"{workload} --trace {trace} emitted {emitted}, "
                   f"expected {expected[trace]}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} --trace {trace} failed its checks")
            if trace == 0:
                hit_rates[workload] = \
                    result["metrics"]["hit_rate_at_3"]["value"]
            print(f"ok  {workload} --trace {trace}: "
                  f"{len(emitted)} metrics, {result['attempted']} checks")
    expect(hit_rates["replay"] == hit_rates["rank_observe"],
           f"hit rates differ: {hit_rates}")
    corrupted = bench("rank", 0, "--corrupt")
    expect(not corrupted["correct"] and corrupted["failed"] == 1
           and corrupted["metrics"]["success_rate"]["value"] < 1.0,
           f"a corrupted ranking was not caught: {corrupted}")
    print("ok  a corrupted ranking fails its check and lowers success_rate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
