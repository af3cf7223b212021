"""Run one zetakit CLI command with its speed sampled.

    python3 speedcli.py DIR <zetakit arguments...>

Stdout and the exit code are the CLI's own.  The command's process and
every worker it forks sample the speed of their core (see speed.py) and
write it to DIR, from which run.py computes the command's reference CPU
time.
"""

import sys
from pathlib import Path

import zetakit.cli

import speed


def main() -> int:
    out_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    out_dir.mkdir(parents=True, exist_ok=True)
    speed.install(out_dir)
    try:
        return zetakit.cli.main(argv)
    finally:
        sys.stdout.flush()
        speed.finish()


if __name__ == "__main__":
    sys.exit(main())
