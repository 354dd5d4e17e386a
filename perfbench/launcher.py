"""Run ``chebgreen.cli.main(argv)`` with the span wrappers installed.

Usage: python3 perfbench/launcher.py SPANS_PATH CLI_ARGS...

The spans stay in memory while the command runs and are written to
SPANS_PATH (a .npy file) just before the process exits with the
command's exit code.  ``PYTHONPATH`` must point at the checkout's src/.
"""

import sys

import numpy as np

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from chebgreen import cli

    try:
        code = cli.main(argv)
    finally:
        np.save(spans_path, tracer.array())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
