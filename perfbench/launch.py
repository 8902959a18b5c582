"""Run the ``higsni`` CLI as its console script does, marking when import ends.

Usage: python3 launch.py MARK_FILE ARGS...

Writes ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all processes on
the host) to MARK_FILE as soon as ``import higsni.cli`` returns, then calls
``higsni.cli.main(ARGS)`` and exits with its code.
"""

import sys
import time

import higsni.cli

_imported = time.perf_counter()
with open(sys.argv[1], "w") as _fh:
    _fh.write(repr(_imported))
sys.exit(higsni.cli.main(sys.argv[2:]))
