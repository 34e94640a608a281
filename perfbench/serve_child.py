"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_child.py TRACE_FILE <repro CLI args>``.
The traced service workload starts its daemon through this file; on
shutdown (SIGINT) the spans and counters go to TRACE_FILE for the
parent benchmark to merge.  Untraced runs start ``python -m repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.cli import main as repro_main  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
