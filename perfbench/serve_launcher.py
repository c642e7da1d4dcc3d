"""Start ``porcupine serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_launcher.py SPANS_OUT serve [serve args...]``

Installs the same wrappers as the traced benchmark process, runs the CLI
entry point in this process, and after the server shuts down writes the
finished spans as JSON to ``SPANS_OUT``.
"""

import json
import sys

from tracing import install_tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = install_tracer()
    from repro.__main__ import main as cli_main

    code = cli_main(argv)
    with open(out, "w") as stream:
        json.dump(tracer.dump(), stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
