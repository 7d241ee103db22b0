"""Run ``repro serve`` with the tracing wrappers installed.

Usage: ``python3 serve_launcher.py SPANS_PATH serve [serve options...]``
with the checkout's ``src`` on ``PYTHONPATH``.  The wrappers go in before
the CLI builds the app, the server runs until SIGTERM drains it, and the
collected spans and counts are written to ``SPANS_PATH`` on the way out.
"""

import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
