"""Traced gateway: ``python3 perfbench/launcher.py <spans.jsonl> gateway ...``.

Installs the benchmark's tracing wrappers, then runs the real CLI entry
point ``repro.cli.main`` with the remaining arguments.  When the gateway
returns (SIGTERM drains it), the in-memory spans are written out.
"""

from __future__ import annotations

import sys

from prep import SRC

sys.path.insert(0, str(SRC))


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
