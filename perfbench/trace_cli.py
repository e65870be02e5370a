"""Run one resotrim CLI command with spans recorded around the package.

Usage: python3 perfbench/trace_cli.py <resotrim arguments...>, with
PERFBENCH_SPANS naming the file the spans are written to and resotrim on
PYTHONPATH. The command behaves as ``python -m resotrim.cli`` would: same
output, same exit status, and a traceback where the CLI raises one.
"""

import os
import sys

import resotrim
import resotrim.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer().install(resotrim)
    tracer.op = os.environ.get("PERFBENCH_OP", "")
    try:
        resotrim.cli.main(args=sys.argv[1:], prog_name="resotrim")
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
