"""The sdegree command with per-layer spans, for the traced cli-session run.

    python3 perfbench/cli_shim.py <trace-file> <sdegree arguments...>

Behaves like ``python -m sdegree <arguments>``: same stdout, stderr and exit
status, and an uncaught exception still ends in a traceback.  Before exiting
it writes its spans and its import time of sdegree.cli to <trace-file>.
"""

import sys
from time import perf_counter

t0 = perf_counter()
from sdegree import cli  # noqa: E402

import_s = perf_counter() - t0

import json  # noqa: E402

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    trace_file, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer, cli=True)
    try:
        return cli.cli_main(args)
    finally:
        with open(trace_file, "w") as out:
            json.dump({"import_s": import_s, **tracer.export()}, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
