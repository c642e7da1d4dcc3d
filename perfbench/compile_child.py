"""Cold-compile kernels in a fresh interpreter and report the wall time.

Usage::

    python compile_child.py --cache-dir DIR [--session JSON] [--spans OUT] KERNEL...

Builds ``Porcupine(cache_dir=DIR, **session)`` over an empty cache, compiles
the kernels in order and prints one JSON line: ``seconds`` (the compile
calls only, not the interpreter start or the imports), each program's
text, and the kernels whose synthesis did not prove optimality.  The
programs stay in ``DIR`` for the calling process to load.  With
``--spans``, the benchmark's span wrappers are installed first and the
finished spans are written to ``OUT`` as JSON.

A fresh process per compile keeps the caller's heap (HE keys, tapes,
samples) out of the timed search.
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--session", default="{}")
    parser.add_argument("--spans")
    parser.add_argument("kernels", nargs="+")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracing import install_tracer

        tracer = install_tracer()
    from repro.api import Porcupine

    session = Porcupine(cache_dir=args.cache_dir, **json.loads(args.session))
    started = time.perf_counter()
    compiled = {name: session.compile(name) for name in args.kernels}
    seconds = time.perf_counter() - started
    if tracer is not None:
        with open(args.spans, "w") as stream:
            json.dump(tracer.dump(), stream)
    print(json.dumps({
        "seconds": seconds,
        "programs": {name: str(c.program) for name, c in compiled.items()},
        "incomplete": sorted(
            name for name, c in compiled.items()
            if c.synthesis is not None and not c.synthesis.proof_complete
        ),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
