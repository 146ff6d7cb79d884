"""Run one `passrecall` command in this process and record its timings.

    python3 bench/child.py TIMINGS_JSON [--trace SPANS_JSON] -- build|recall ...

The arguments after ``--`` go unchanged to ``passrecall.cli.main``, the
function the ``passrecall`` console script calls.  For `recall` the only
addition is a clock read on entry to and exit from each
``RecallEngine.recall`` call (the method ``run_recall_batch`` looks up), so
the parent can tell set-up time from query time; the process's peak RSS
goes in the same file.  With ``--trace`` the layer wrappers of
``tracer.py`` go in as well; that run is never the timed one.  Exits with
the command's own exit code.
"""

from __future__ import annotations

import json
import sys
import time

from passrecall import cli, pipeline


def _timed_queries(spans: list):
    inner = pipeline.RecallEngine.recall

    def recall(self, query):
        start = time.monotonic()
        try:
            return inner(self, query)
        finally:
            spans.append((start, time.monotonic()))

    pipeline.RecallEngine.recall = recall


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  getrusage and wait4 would also count the
    spawning parent's peak, which Linux carries across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1:]
    timings_path = own[0]
    tracer = None
    if len(own) == 3 and own[1] == "--trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    queries: list = []
    _timed_queries(queries)
    code = cli.main(command)
    with open(timings_path, "w", encoding="utf-8") as fh:
        json.dump({"queries": queries, "peak_rss_kb": _peak_rss_kb()}, fh)
    if tracer is not None:
        tracer.dump(own[2])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
