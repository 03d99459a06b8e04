"""The ``mimicknet`` console script, also run as ``python -m mimicknet``.

The certified rank's float64 products are small, and OpenBLAS's hand-off
between threads costs more than they do, so the command pins OpenBLAS to
one thread unless ``OPENBLAS_NUM_THREADS`` is already set.  OpenBLAS reads
the variable once, when numpy loads, so it is set before :mod:`cli` is
imported.  Importing the library leaves the variable alone.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
