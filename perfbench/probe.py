"""Set-up probe: time a fresh process's imports and first CLI call.

Run as ``python3 perfbench/probe.py <glmdopt cli argv...>`` from the repository
root. Prints ``{"setup_s": ...}``: seconds from the first line of this script
through importing numpy, scipy, ``glmdopt`` and ``glmdopt.cli`` and one
in-process ``glmdopt.cli.main(argv)`` call whose output is discarded.
Interpreter start-up before the first line is not included.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import glmdopt  # noqa: E402,F401
import glmdopt.cli  # noqa: E402

with redirect_stdout(io.StringIO()):
    rc = glmdopt.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - T0
print(json.dumps({"setup_s": elapsed, "rc": rc}))
sys.exit(rc)
