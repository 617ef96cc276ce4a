"""Run one ``llm4vv`` command with the benchmark's layer spans.

Usage::

    python perfbench/traced.py SPAN_LOG -- <llm4vv arguments>

Installs a :class:`repro.obs.trace.Tracer` as the ambient tracer, wraps
the layers (:mod:`hooks`), runs the command through ``repro.cli.main``
and writes the spans as a ``repro.obs`` JSON-lines log to ``SPAN_LOG``
(read it with ``llm4vv trace summarize SPAN_LOG``), plus per-namespace
cache counters to ``SPAN_LOG.counters.json``.  The first span,
``startup.import``, starts when the parent spawned this process
(``PERFBENCH_SPAWNED_AT``, wall-clock seconds) and ends once the
program is imported, so interpreter start-up and imports are on the
ledger too; ``bench.command`` spans the command itself.  Exits with
the command's return code.
"""

import json
import os
import sys
import time

SPAWNED_AT = float(os.environ.get("PERFBENCH_SPAWNED_AT") or time.time())


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    span_log, command = argv[0], argv[2:]

    from repro.obs import trace

    tracer = trace.Tracer()
    trace.install(tracer)
    startup = tracer.start_span("startup.import")
    startup.start = SPAWNED_AT
    # the program's imports happen here, inside the start-up span
    import hooks
    from repro import cli
    from repro.obs.export import write_span_log

    hooks.install()
    tracer.finish(startup)
    try:
        # the root span marks where the command ends; writing the log
        # after it is the benchmark's cost, not the program's
        with tracer.span("bench.command", argv=" ".join(command)):
            rc = cli.main(command)
    finally:
        write_span_log(tracer.spans, span_log)
        with open(span_log + ".counters.json", "w") as fh:
            json.dump({"cache": hooks.cache_counts()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
