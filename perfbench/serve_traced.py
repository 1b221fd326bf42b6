"""``python -m repro serve`` with the benchmark's layer spans installed.

Usage: ``REPRO_TRACE=trace.jsonl python perfbench/serve_traced.py serve
DATASET [serve options]``.  Wraps the server-side entry points (see
:func:`spans.install`), keeps every span in memory, then runs the CLI's
own ``main``; its ``REPRO_TRACE`` handling writes the spans out when the
server stops.  Stop it with SIGINT: ``serve`` has no SIGTERM handler,
so a terminated server would lose the buffered spans.
"""

import sys

import spans
from repro.__main__ import main

if __name__ == "__main__":
    spans.hold_in_memory()
    spans.install("server")
    sys.exit(main(sys.argv[1:]))
