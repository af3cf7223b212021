"""Run one zetakit CLI command with the tracer installed.

    python3 tracecli.py TOTALS.json <zetakit arguments...>

Stdout and the exit code are the CLI's own; the per-layer totals of this
process, its map_ordered items included, go to TOTALS.json.
"""

import json
import sys
import time

_start = time.perf_counter()

import zetakit.cli  # noqa: E402

_import_s = time.perf_counter() - _start

import tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer.install()
    try:
        return zetakit.cli.main(argv)
    finally:
        sys.stdout.flush()
        totals = tracer.summarize(time.perf_counter() - _start, _import_s)
        with open(out_path, "w") as fh:
            json.dump(totals, fh)


if __name__ == "__main__":
    sys.exit(main())
