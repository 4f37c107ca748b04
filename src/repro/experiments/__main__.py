"""Entry point: ``python -m repro.experiments NAME... [--quick]``.

The same command as ``python -m repro experiment NAME...``, flags and all.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["experiment", *sys.argv[1:]]))
