"""One workload run in a fresh interpreter; ``run.py`` starts it.

It times its own set-up first: from the moment ``run.py`` spawned it
(``--spawned-at``, a ``time.perf_counter`` reading, which is system-wide
on Linux) until ``cli.build_parser()`` returns.  Then ``harness.main``
generates the inputs and measures the workload; the last line of
standard output is a JSON object for ``run.py``.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[sys.argv.index("--spawned-at") + 1])

from mmwshare import cli  # noqa: E402  (imports are part of set-up)

cli.build_parser()
SETUP_S = time.perf_counter() - SPAWNED_AT

import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.main(SETUP_S))
