"""Run ``repro gateway`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/gateway_launcher.py SPANS_OUT gateway ...``.
The wrappers go in before the CLI starts, then the process enters the
same ``repro.cli`` gateway path as ``python -m repro.cli gateway``.
Spans are written to ``SPANS_OUT`` when the CLI exits (after its
SIGTERM drain).
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.trace import Tracer
    from repro import cli

    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
