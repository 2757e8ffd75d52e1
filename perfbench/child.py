"""Child processes of the benchmark; run.py starts them, one at a time.

    python3 perfbench/child.py setup WORKLOAD
        fresh-interpreter set-up: import flowbif and build every input of
        the workload; prints the seconds taken, raw and scaled.
    python3 perfbench/child.py s5
        ``flowbif classify gallery/s5.field``; prints ``rc=<exit code>``,
        then its stdout.  The parent kills it at its deadline.
"""

from __future__ import annotations

import sys

import hostspeed
import run
from ops import cli_call


def setup(workload):
    t0 = hostspeed.clock()
    pkg = run.load_package()
    run.build_ops(workload, pkg)
    if workload == "gallery":
        run.gallery.parse_inputs(pkg, run.ROOT)
    raw = hostspeed.clock() - t0
    # the host's speed changes over seconds, so samples taken right after
    # the set-up stand for the speed during it
    print(raw, hostspeed.scaled(raw, [hostspeed.kernel() for _ in range(32)]))


def s5():
    print(cli_call(run.load_package(), ["classify", f"{run.ROOT}/gallery/s5.field"])(), end="")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        s5()
