"""Produce the paper-scale results recorded in EXPERIMENTS.md.

    python tools/run_full_experiments.py [--out DIR]

Equivalent to `repro.experiments.persistence.run_and_save_all(DIR)`, with
a log on standard output: a header naming the host's CPU count and the
Python and NumPy versions, then one line per experiment with its wall
time and the process's peak RSS so far.  DIR defaults to `results`; give
another to measure without overwriting the committed artifacts.
"""
import argparse
import os
import pathlib
import platform
import resource
import sys

import numpy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.persistence import run_and_save_all  # noqa: E402


def report(name, seconds):
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
    print(f"=== {name} done in {seconds:.0f}s, peak RSS {peak_mb:.0f} MB ===",
          flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--out", default="results", metavar="DIR",
                        help="directory for the artifacts (default: results)")
    args = parser.parse_args(argv)
    print(f"=== host: cpu_count {os.cpu_count()}, Python"
          f" {platform.python_version()}, NumPy {numpy.__version__} ===",
          flush=True)
    written = run_and_save_all(args.out, progress=report)
    for name, paths in written.items():
        for path in paths:
            print(" ", path)


if __name__ == "__main__":
    main()
