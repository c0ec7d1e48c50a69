"""Suite-wide setup, run before any test module imports numpy.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads. The suite runs
it on one thread, as the `climpanel` command does (see __main__.main): its
regressions are too small for a second thread to help, and a spinning one
slows them on a busy host. A value set in the environment is kept. The
tests that check the command's default remove the variable from their
children's environment.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
