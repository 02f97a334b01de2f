"""Traced stand-in for ``python -m kipa_lab.cli`` used by the traced cold-cli run.

Usage: python3 perfbench/child.py <trace.json> <kipa-lab arguments...>

Runs kipa_lab.cli.main with tracer spans installed and writes the span totals
to <trace.json>; stdout and the exit code are the program's own.
"""

import json
import sys

import kipa_lab.cli

import tracer

if __name__ == "__main__":
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        code = kipa_lab.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        with open(sys.argv[1], "w") as fh:
            json.dump(tr.snapshot(), fh)
    sys.exit(code)
