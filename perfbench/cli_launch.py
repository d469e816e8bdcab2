"""Traced stand-in for `python -m orbhodge.cli`.

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/cli_launch.py ARGS...

Times the import of orbhodge.cli, installs the tracer, runs
orbhodge.cli.main(ARGS) and exits with its code.  The tracer's stats go to
DIR/trace-<pid>.json for the worker to merge.
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import orbhodge.cli
    import_s = time.perf_counter() - t0
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return orbhodge.cli.main(sys.argv[1:])
    finally:
        stats = tracer.stats()
        stats["import_s"] = import_s
        path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"trace-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
