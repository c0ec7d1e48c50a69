"""Same-behaviour check: do this tree and a commit give the same outputs?

For each CONFIG the script runs simulate, anomaly, lp, ardl and stats, each
into its own output directory, and the runs that take no config (--version,
--help, lp --help, no command at all, a bad config value (stats --m 0),
and stats and lp, which lack their inputs or outcomes), as `python -m
climpanel`; then stats and --version once more through the `climpanel`
script's form, `sys.exit(main())`. It makes each run once with this tree's
src and once with the src of a `git archive` copy of REV (HEAD by
default). For each run it compares the output tree byte for byte (a
directory that is missing differs from an empty one), stdout and stderr
with each side's output directory replaced by <out>, and the exit code. It
prints every difference and exits 1 if there is any.

    python tests/same_outputs.py [--rev REV] CONFIG...

Paths in a config are relative to the config file, as the CLI reads them.
pytest does not collect this file (it is not test_*.py), and it needs no
package beyond the suite's.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "anomaly", "lp", "ardl", "stats")
# runs that read no config and write nothing, by their arguments
NO_CONFIG = ("--version", "--help", "lp --help", "", "stats --m 0", "stats",
             "lp")
# the interpreter arguments of each form: `python -m climpanel`, and pip's
# `climpanel` script, which calls sys.exit(main())
FORMS = {"module": ["-m", "climpanel"],
         "script": ["-c", "import sys; from climpanel.__main__ import main; "
                          "sys.exit(main())"]}
# (command, whether it reads the config) for the runs in the script's form
SCRIPT_RUNS = (("stats", True), ("--version", False))


def _tree(out: Path) -> dict | None:
    """{path relative to out: bytes, or None for a directory}; None if
    out does not exist."""
    if not out.exists():
        return None
    return {str(p.relative_to(out)): None if p.is_dir() else p.read_bytes()
            for p in sorted(out.rglob("*"))}


def _run(src: Path, form: str, args: list[str], out: Path | None) -> dict:
    """What one `climpanel *args` in form on src leaves and prints."""
    if out is not None:
        args = [*args, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, *FORMS[form], *args], env=env,
                         capture_output=True, text=True)

    def clean(text):
        return text if out is None else text.replace(str(out), "<out>")

    return {"exit code": run.returncode, "stdout": clean(run.stdout),
            "stderr": clean(run.stderr),
            "tree": None if out is None else _tree(out)}


def _differences(here: dict, there: dict, rev: str) -> list[str]:
    lines = [f"{key}: {here[key]!r} here, {there[key]!r} at {rev}"
             for key in ("exit code", "stdout", "stderr")
             if here[key] != there[key]]
    a, b = here["tree"], there["tree"]
    if (a is None) != (b is None):
        lines.append("output directory: " + ("made only at " + rev if a is None
                                             else "made only here"))
        return lines
    for name in sorted((a or {}).keys() | (b or {}).keys()):
        if name not in b:
            lines.append(f"{name}: only here")
        elif name not in a:
            lines.append(f"{name}: only at {rev}")
        elif a[name] != b[name]:
            lines.append(f"{name}: bytes differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="commit to compare with")
    ap.add_argument("configs", nargs="+", metavar="CONFIG")
    args = ap.parse_args(argv)
    runs = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev,
                                  "src"], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        for config in args.configs:
            for form, command, configured in (
                    *(("module", c, True) for c in COMMANDS),
                    *(("module", c, False) for c in NO_CONFIG),
                    *(("script", *run) for run in SCRIPT_RUNS)):
                runs += 1
                cmd = ([command, "--config", config] if configured
                       else command.split())
                outs = ((tmp / f"here{runs}", tmp / f"rev{runs}")
                        if configured else (None, None))
                found = _differences(_run(ROOT / "src", form, cmd, outs[0]),
                                     _run(tmp / "src", form, cmd, outs[1]),
                                     args.rev)
                differ += bool(found)
                label = (command if configured
                         else f"{command or '(no command)'} (no config)")
                label += " (script)" if form == "script" else ""
                print(f"{config} {label}: "
                      + (f"{len(found)} differences" if found else "same"),
                      *(f"  {line}" for line in found), sep="\n", flush=True)
    print(f"{runs - differ} of {runs} runs the same as {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
