"""Installs the benchmark's span wrappers in every traced interpreter.

A traced run puts this directory on ``PYTHONPATH`` and names an output
directory in ``PERFBENCH_TRACE_DIR``; every Python process started with
that environment (the job runner, ``repro-zoo serve`` and the workers it
spawns) then records spans into that directory.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install(os.environ["PERFBENCH_TRACE_DIR"])
