"""Run one ovensched CLI command with layer tracing, for the traced cli-certify pass.

Usage: python3 perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Behaves like ``python -m ovensched.cli CLI_ARGS...`` (same stdout, stderr and
exit code) and also writes the traced call durations and the in-process
``dispatch`` wall time to SPANS_JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from common import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from ovensched import cli

    with Tracer() as tracer:
        started = perf_counter()
        code = cli.dispatch(argv)
        dispatch_s = perf_counter() - started
    spans_path.write_text(
        json.dumps({"dispatch_s": dispatch_s, "tracer": tracer.export()}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
