"""Traced ``entlab`` CLI process for the cli_batch workload.

Usage: cli_child.py SUMMARY_PATH CLI_ARGS...

Runs ``entlab.cli.main(CLI_ARGS)`` with the tracer installed and writes the
tracer's summary to SUMMARY_PATH. ``cli.startup_s`` is the time from the
parent's spawn (``PERFBENCH_SPAWN_T``, wall-clock seconds) until
``entlab.cli`` is imported.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import entlab.cli  # noqa: E402

startup_s = time.time() - float(os.environ["PERFBENCH_SPAWN_T"])

import tracer as tracing  # noqa: E402


def main() -> int:
    summary_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = entlab.cli.main(cli_args)
    summary = tracer.summary()
    summary["self_s"]["cli.startup"] = startup_s
    summary["calls"]["cli.startup"] = 1
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
