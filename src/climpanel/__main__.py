"""Command-line entry point: ``python -m climpanel`` and the ``climpanel``
script both call main()."""
import os
import sys


def main(argv=None) -> int:
    # Every regression here is far too small for a second OpenBLAS thread
    # to help, and its spin-waiting costs CPU and sometimes stalls a QR.
    # OpenBLAS reads the variable when numpy loads, so set it before .cli
    # imports numpy; a value set in the environment is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
