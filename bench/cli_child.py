"""Traced stand-in for ``python -m longrun.cli``, started by the paper_cli workload.

Usage: python cli_child.py SPANS_PATH CLI_ARGS...

Timestamps its own start and its imports, runs ``longrun.cli.main`` with the
tracer's wrappers installed, then writes its spans and timestamps to
SPANS_PATH as JSON and exits with the CLI's exit code.
"""

import time

T0 = time.perf_counter_ns()

import sys  # noqa: E402

_t = time.perf_counter_ns()
import numpy  # noqa: E402,F401

_t_numpy = time.perf_counter_ns()
import longrun.cli  # noqa: E402

_t_longrun = time.perf_counter_ns()

import json  # noqa: E402

from spans import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.add("startup.numpy_import", _t, _t_numpy)
    tracer.add("startup.longrun_import", _t_numpy, _t_longrun)
    with tracer.installed():
        code = longrun.cli.main(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"t0": T0, "t_end": time.perf_counter_ns(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
