"""Command-line entry point: ``python -m climpanel`` and the ``climpanel``
script both call main(), which runs the command without the cyclic garbage
collector. Run as a module, the process ends without interpreter teardown
(see _exit)."""
import atexit
import gc
import os
import sys


def main(argv=None) -> int:
    # Every regression here is far too small for a second OpenBLAS thread
    # to help, and its spin-waiting costs CPU and sometimes stalls a QR.
    # OpenBLAS reads the variable when numpy loads, so set it before .cli
    # imports numpy; a value set in the environment is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # A command leaves no reference cycle that holds an array, a record or
    # an error, only argparse's and configparser's parser objects, so the
    # collector frees nothing that matters; its passes over numpy's import
    # and the command cost ~3 ms.
    # Reference counting still frees every array. It stays off to the end:
    # re-enabled, its first pass would scan all that was allocated since.
    gc.disable()
    from .cli import main as cli_main
    return cli_main(argv)


def _exit(code: int) -> None:
    """End the process with code as interpreter shutdown would, without
    tearing the interpreter down: run the exit handlers, flush stdout and
    stderr, then os._exit. Teardown, mostly of numpy's modules, costs each
    command ~21 ms and has nothing left to do, since every output file is
    closed when main returns. A stream that cannot be flushed falls back
    to sys.exit, whose shutdown reports it as before."""
    atexit._run_exitfuncs()   # and clears them, so they run once
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _exit(main())
