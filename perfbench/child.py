"""Run one ``topolysemy`` CLI invocation in this process and report on it.

Usage: python3 perfbench/child.py REPORT.json {0|1} -- <topolysemy argv...>

The parent starts this script in a fresh process with OpenBLAS pinned to one
thread and ``src/`` on PYTHONPATH.  It calls ``topolysemy.cli.main`` with the
argv a user would type.  With trace 0 only the set-up and output boundaries
are timed (a handful of calls); with trace 1 every function of
``layers.TRACED`` is.  After ``main`` returns, the report gets the
monotonic time ``main`` returned (the parent measures wall time from its
own spawn time on the same clock), the peak resident memory, the spans,
the induced sense vocabularies (for the wsi check) and the count of
clamped-k warnings.  The process exits with the CLI's return code.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


class _ClampCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "clamped" in record.getMessage():
            self.count += 1


def _peak_rss_mb() -> float:
    """This process's resident high-water mark (VmHWM) in MiB.

    rusage's ru_maxrss is not used: exec carries the parent's high-water
    mark at spawn time into the child's, so it would count the parent.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, trace_flag, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: child.py REPORT.json {0|1} -- <topolysemy argv...>")
    traced = trace_flag == "1"

    from topolysemy import cli

    senses: dict[str, list[list[str]]] = {}

    def keep_senses(span, args, kwargs, result) -> None:
        for target, induced in result.senses.items():
            senses[target] = [list(cluster) for cluster in induced.clusters]

    tracer = Tracer(run=f"{os.getpid()}", hooks=layers.hooks(keep_senses, traced))
    tracer.install(layers.TRACED if traced else layers.BOUNDARY)
    clamps = _ClampCounter()
    logging.getLogger("topolysemy").addHandler(clamps)

    code = cli.main(cli_argv)
    done = time.monotonic()
    peak_rss_mb = _peak_rss_mb()

    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "done": done,
                "peak_rss_mb": peak_rss_mb,
                "spans": tracer.dump(),
                "missing": tracer.missing,
                "senses": senses,
                "clamped_k": clamps.count,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
