"""``python -m vncalc``: the same command line as the ``vncalc`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
