"""Run the cfree command with the benchmark's tracer installed.

    python3 perfbench/cli_launcher.py DUMP_PATH ARGS...

behaves as ``cfree ARGS...`` (same stdout, stderr and exit code) and
writes the spans and counts of the call to DUMP_PATH as JSON, with the
time at which ``cfree.cli`` had been imported.
"""

import json
import sys
import time


def main():
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import cfree.cli

    imported = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    try:
        with tracer:
            code = cfree.cli.main(argv)
    finally:
        dump = tracer.dump()
        dump["imported"] = imported
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
