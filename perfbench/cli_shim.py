"""Child entry point for traced cli-cold ops: installs the span tracer, runs
``homsums.cli.main`` on the remaining arguments and saves the trace.

    python3 perfbench/cli_shim.py TRACE.npz moments kernel.json --law m4=9/2
"""

import sys

import homsums.cli
from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return homsums.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        tracer.save(trace_path)


if __name__ == "__main__":
    sys.exit(main())
