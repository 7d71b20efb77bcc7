"""Run the ``repro`` CLI in a subprocess with the benchmark's layer probes.

Usage::

    python3 perfbench/repro_cli.py SPANS.jsonl SPAWNED_AT <repro arguments...>

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` just before it
started this process; the interval up to the end of the imports becomes a
``cli.startup`` span, so the written spans cover the whole subprocess.
The command itself runs under a ``cli`` root span with every probe of
:data:`tracing.PROBES` installed, and all spans are written to
``SPANS.jsonl`` as JSON lines when it returns.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    """Trace one ``repro`` command; returns its exit code."""
    spans_path, spawned_at, *command = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import repro.cli
    import repro.serving  # noqa: F401 - probes patch the package's re-exports too

    tracer = tracing.Tracer()
    status = tracing.proc_status_kb()
    tracer.record(tracing.Span(tracer.new_id(), "cli.startup", None, float(spawned_at),
                               tracing.CLOCK(), cpu=time.process_time(),
                               rss_kb=status.get("VmRSS", 0), peak_kb=status.get("VmHWM", 0)))
    tracing.install(tracer)
    try:
        with tracer.span("cli"):
            code = repro.cli.main(command)
    finally:
        tracer.write_jsonl(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
