"""`python -m quatsym` with span tracing, for traced cli-cold passes.

    python3 benchmarks/traced_cli.py SPAN_DIR ARGS...

runs quatsym.cli.main(ARGS) with every traced function wrapped and writes
the spans to a fresh .npz file in SPAN_DIR before exiting with main's code.
"""
import os
import sys
import time

import tracer as tracing


def main() -> int:
    span_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    from quatsym import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(os.path.join(span_dir, f"cli-{os.getpid()}-{time.time_ns()}.npz"))


if __name__ == "__main__":
    sys.exit(main())
