"""Traced stand-in for `python -m permeameter.cli`, used by cli-oneshot.

    python oneshot.py SPANS_JSON CLI_ARGS...

Times its own import of permeameter.cli, runs the CLI under the span
recorder, and writes {"import_ms": ..., "spans": [...]} to SPANS_JSON.
"""

import json
import sys
import time

from spans import Tracer

if __name__ == "__main__":
    start = time.perf_counter()
    import permeameter.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    code = tracer.operation(lambda: permeameter.cli.main(sys.argv[2:]))
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh)
    sys.exit(code)
