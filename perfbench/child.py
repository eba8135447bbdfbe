"""Run one dfqgame command in this process and write what it measured.

Usage: python3 perfbench/child.py MODE RESULT SPAWNED DFQGAME_ARG...

MODE is `setup` (stop at the call into the command), `timed` (end-to-end
spans only) or `traced` (every span and counter). RESULT is the JSON file
to write. SPAWNED is the parent's `time.perf_counter()` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, which all
processes share, so setup time counts interpreter start-up too.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from dfqgame import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    mode, result_path, spawned = argv[1], argv[2], float(argv[3])
    args = argv[4:]
    result = {"mode": mode, "spawned": spawned}
    if mode == "setup":
        entered = []

        def stop(cfg):
            entered.append(time.perf_counter())
            return 0

        cli.cmd_train = cli.cmd_quantize_eval = stop
        rc = cli.main(args)
        result["setup_s"] = entered[0] - spawned
    else:
        with Tracer(traced=mode == "traced") as tracer:
            t0 = time.perf_counter()
            rc = cli.main(args)
            result["main_wall_s"] = time.perf_counter() - t0
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    result["exit"] = rc
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
