"""``python -m repro.serve`` with the benchmark's layer spans recorded.

Used by the traced ``serve_warm`` run: installs the span wrappers of
:mod:`perfbench.tracing` in the server process, runs the server's own
CLI with the given arguments, and writes the spans to the path in
``PERFBENCH_SPANS`` when the server exits.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.tracing import Tracer, install_layers  # noqa: E402


def main() -> int:
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    install_layers(tracer)
    try:
        return serve_main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
