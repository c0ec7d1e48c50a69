"""Command line: ``python -m climpanel`` and the ``climpanel`` script both
call main(), which runs the command without the cyclic garbage collector,
then ends the process without interpreter teardown.
The command bodies are in cli, which run imports once argparse and the
config layer have accepted the command, so --version, --help and a usage
or config error load no numpy.

Exit codes: 0 success, 1 usage/config, or an output file (a series name
holding a path separator included) or stdout that cannot be written, 2
data validation, 3 estimation failure in every cell.
"""
import argparse
import atexit
import contextlib
import gc
import io
import os
import sys
import warnings

from . import __version__
from .errors import (
    ClimPanelError,
    ConfigError,
    DataValidationError,
    EstimationError,
)

# subcommand -> help text; cli._cmd_<subcommand> runs it
_COMMANDS = {
    "anomaly": "Compute norms, anomalies, sign splits and seasonal shocks; "
               "write the series plus a norms audit file.",
    "ardl": "Estimate ARDL long-run effects per outcome and norm window, "
            "with annualized summaries.",
    "lp": "Estimate cumulative impulse responses of each outcome to each "
          "configured shock.",
    "simulate": "Generate seeded synthetic panels (demo climate/prices, LP "
                "DGP, ARDL DGP).",
    "stats": "Per-region summary statistics for panel variables.",
}


def _parser() -> argparse.ArgumentParser:
    # --help but no -h, and no abbreviated options: --conf is a usage
    # error, not --config
    flags = {"add_help": False, "allow_abbrev": False}
    help_flag = {"action": "help", "help": "Show this message and exit."}
    parser = argparse.ArgumentParser(
        prog="climpanel", **flags,
        description="Climate norms and anomalies, LP impulse responses, and "
                    "ARDL long-run effects for regional quarterly panels.")
    parser.add_argument("--version", action="version",
                        version=f"climpanel, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", **help_flag)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for name, help_text in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text,
                                      description=help_text, **flags)
        command.add_argument("--config", metavar="PATH",
                             help="INI config file.")
        command.add_argument("--out", metavar="DIR",
                             help="Override [output] dir.")
        command.add_argument("--m", metavar="LIST",
                             help="Override norm windows, e.g. 20,30,40 "
                                  "(lp uses the first entry).")
        command.add_argument("--seed", type=int, metavar="N",
                             help="Override [simulate] seed.")
        command.add_argument("--help", **help_flag)
    return parser


# error class -> (stderr prefix, exit code); the first match wins
_EXITS = (
    (ConfigError, "config error", 1),
    (DataValidationError, "data error", 2),
    (EstimationError, "estimation error", 3),
    (ClimPanelError, "error", 1),
)


def _print_warnings(caught: list) -> None:
    """One stderr line per distinct warning text, in the order each first
    occurred, with no source line and with its count if it occurred more
    than once."""
    counts = {}
    for warning in caught:
        message = " ".join(str(warning.message).splitlines())
        counts[message] = counts.get(message, 0) + 1
    for message, n in counts.items():
        print(f"warning: {message}" + (f" ({n} times)" if n > 1 else ""),
              file=sys.stderr)


def run(argv=None) -> int:
    """Run one command, mapping toolkit errors, and a stdout that cannot be
    written (a pipe whose reader has gone), to one stderr line and a code."""
    code, text = 0, io.StringIO()   # stdout: argparse's text or the summary
    try:
        with contextlib.redirect_stdout(text):
            args = _parser().parse_args(argv)
        # the config layer loads once argparse has picked a command, so
        # --version, --help and a usage error compile none of it
        from .config import _inputs, load_config
        cfg = load_config(args.config, args.out, args.m, args.seed)
        _inputs(cfg, args.command)
        # numpy and the panel layer load here, with the command bodies: a
        # usage or config error (a missing [input] path or outcome list
        # among them) exits without them
        from . import cli
        body, job = getattr(cli, f"_cmd_{args.command}"), cli._Run(cfg)
        try:
            with warnings.catch_warnings(record=True) as caught:
                # every warning is kept, also one repeated at a code
                # location, which the default filter would show once
                warnings.simplefilter("always")
                try:
                    summary, facts, failures = body(cfg, job)
                finally:
                    _print_warnings(caught)
            job.report(args.command, facts, failures)
        except OSError as exc:   # the readers raise typed errors: a write
            raise ClimPanelError(f"{exc.filename or job.out}: cannot write: "
                                 f"{exc.strerror or exc}") from None
        text.write(summary + "\n")
    except SystemExit as exc:
        # --help and --version exit 0; argparse exits 2 on a usage error,
        # which is 1 here like every other usage/config error
        code = 1 if exc.code else 0
    except ClimPanelError as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _EXITS
                            if isinstance(exc, kind))
        # one stderr line per failure, also for a multi-line message such
        # as configparser's
        print(f"{prefix}: " + " ".join(str(exc).splitlines()),
              file=sys.stderr)
    try:
        print(text.getvalue(), end="", flush=True)
    except OSError as exc:
        # what is still buffered goes to os.devnull, so that no later flush
        # reports the failure again (the SIGPIPE note of Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc.strerror}",
              file=sys.stderr)
        return 1
    return code


def main(argv=None) -> None:
    # Every regression here is far too small for a second OpenBLAS thread
    # to help, and its spin-waiting costs CPU and sometimes stalls a QR.
    # OpenBLAS reads the variable when numpy loads, so set it before run
    # imports numpy; a value set in the environment is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # A command leaves no reference cycle that holds an array, a record or
    # an error, only argparse's and configparser's parser objects, so the
    # collector frees nothing that matters; its passes over numpy's import
    # and the command cost ~3 ms.
    # Reference counting still frees every array. It stays off to the end:
    # re-enabled, its first pass would scan all that was allocated since.
    gc.disable()
    code = run(argv)
    # End the process as interpreter shutdown would, without tearing the
    # interpreter down: run the exit handlers, flush stdout and stderr,
    # then os._exit. Teardown, mostly of numpy's modules, costs each
    # command ~21 ms and has nothing left to do, since every output file is
    # closed when run returns. A stream that cannot be flushed falls back
    # to sys.exit, whose shutdown reports it as before.
    atexit._run_exitfuncs()   # and clears them, so they run once
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
