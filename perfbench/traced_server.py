"""Run ``repro serve`` in this process with the layer wrappers installed.

Usage: ``python traced_server.py SPANS_JSON serve [serve options]``.
The server keeps the process layout of ``python -m repro.cli serve``;
its spans are written to ``SPANS_JSON`` after it shuts down.
"""

import sys

import layers
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    layers.install_server(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
