"""climpanel benchmark: cold per-command wall time plus a traced layer run.

Usage, from the repository root:

    python3 climbench/run.py --workload demo --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the real CLI (``python -m climpanel <cmd>``) as cold
child processes, one at a time, and reports the end-to-end metrics. The
five subcommands and ``--version`` run in two rounds (so repeat outputs
can be compared byte for byte); the rest of ``--seconds`` repeats the
commands sampled for the least time so far. Each time is the median over
its command's samples.
``--trace 1`` instead times ``import climpanel.cli`` in fresh interpreters
and runs the five commands in process, once plain and once with every
layer boundary wrapped by ``tracing``, and reports the per-layer metrics.

Either way the outputs are checked outside the timed region, and the last
line printed is one JSON object with ``correct``, ``attempted``, ``failed``
(command invocations) and ``metrics``. BLAS thread settings are left as
the environment has them and only recorded.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from climbench import checks, inputs, tracing  # noqa: E402

COMMANDS = ("simulate", "anomaly", "lp", "ardl", "stats")
# One round of cold runs: the set-up, then the commands in pipeline order.
ROUND = ("version", *COMMANDS)
MIN_SAMPLES = 2
MAX_SAMPLES = 12
IMPORT_RUNS = 3       # fresh-interpreter imports for cli.import_s
DEADLINE_S = 170.0    # children still running then are killed

END_TO_END = {
    "setup_s": "s", "simulate_s": "s", "anomaly_s": "s", "lp_s": "s",
    "ardl_s": "s", "stats_s": "s", "pipeline_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "regressions_per_s": "1/s",
}

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import climpanel.cli; "
                  "print(time.perf_counter() - t)")


@dataclass
class Invocation:
    label: str
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    log: Path
    errors: list


class Runner:
    """Starts climpanel children one at a time and records their cost."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.n = 0

    def child(self, label: str, args: list[str]) -> Invocation:
        self.n += 1
        log = self.work / "logs" / f"{self.n:03d}-{label}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work,
                                    env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        errors = [] if rc == 0 else [f"exit code {rc}: {_tail(log)}"]
        return Invocation(label, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss, rc, log, errors)

    def version(self) -> Invocation:
        inv = self.child("version", ["-m", "climpanel", "--version"])
        if inv.rc == 0 and b"climpanel, version" not in inv.log.read_bytes():
            inv.errors.append("--version printed no version")
        return inv

    def command(self, cmd: str, out: str) -> Invocation:
        return self.child(f"{cmd}-{out.replace('/', '-')}",
                          ["-m", "climpanel", cmd, "--config", "run.ini",
                           "--out", out])


def _tail(log: Path) -> str:
    return " | ".join(log.read_text(errors="replace").strip().splitlines()[-3:])


def _check_outputs(w, seed, data, dirs: dict[str, Path]):
    """Report counts and oracle cells of one full set of command outputs.

    Returns (errors by command, LP horizons failed, ARDL cells failed)."""
    horizons, cells, report_errors = checks.report_failures(
        dirs["lp"], dirs["ardl"], w)
    lp_cell, ardl_cell = checks.pick_cells(w, seed)
    errors = {cmd: checks.check_files(dirs[cmd], checks.expected_files(cmd, w))
              for cmd in COMMANDS}
    errors["lp"] += report_errors
    if not errors["lp"]:
        errors["lp"] += checks.check_lp_cell(data, dirs["lp"], w, lp_cell)
    if not errors["ardl"]:
        errors["ardl"] += checks.check_ardl_cell(data, dirs["ardl"], w,
                                                 ardl_cell)
    return errors, horizons, cells


# ---------------------------------------------------------------------------
# --trace 0: cold child processes
# ---------------------------------------------------------------------------

def cold_run(w, seed, seconds, work, data, deadline):
    """Cold children, one at a time, until --seconds.

    The commands read only the generated inputs, so each can be repeated
    on its own. After MIN_SAMPLES rounds, the time left goes to whichever
    command that still fits has been sampled for the least total time: a
    short command gets more samples, so every median covers a similar
    stretch of the run. Each time metric is the median of its samples."""
    runner = Runner(work, deadline)
    samples = {cmd: [] for cmd in ROUND}
    t0 = time.monotonic()

    def sample(cmd):
        k = len(samples[cmd])
        samples[cmd].append(runner.version() if cmd == "version"
                            else runner.command(cmd, f"rep{k}/{cmd}"))

    for _ in range(MIN_SAMPLES):
        for cmd in ROUND:
            sample(cmd)
    while True:
        left = seconds - (time.monotonic() - t0)
        fit = [cmd for cmd in ROUND if len(samples[cmd]) < MAX_SAMPLES
               and statistics.median(i.wall for i in samples[cmd]) <= left]
        if not fit:
            break
        sample(min(fit, key=lambda cmd: sum(i.wall for i in samples[cmd])))

    # correctness, outside the timed loop
    dirs = {cmd: work / "rep0" / cmd for cmd in COMMANDS}
    errors, _, _ = _check_outputs(w, seed, data, dirs)
    for cmd in COMMANDS:
        samples[cmd][0].errors += errors[cmd]
        for k, inv in enumerate(samples[cmd][1:], start=1):
            out = work / f"rep{k}" / cmd
            inv.errors += (checks.check_files(out, checks.expected_files(cmd, w))
                           + checks.same_bytes(dirs[cmd], out))
    invocations = [i for cmd in ROUND for i in samples[cmd]]

    med = statistics.median
    metrics = {"setup_s": med(i.wall for i in samples["version"])}
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = med(i.wall for i in samples[cmd])
    metrics["pipeline_s"] = sum(metrics[f"{cmd}_s"] for cmd in COMMANDS)
    metrics["cpu_s"] = sum(med(i.cpu for i in samples[cmd]) for cmd in COMMANDS)
    metrics["peak_rss_mb"] = max(i.rss_kb for i in invocations) / 1024.0
    metrics["regressions_per_s"] = ((w.lp_regressions + w.ardl_cells)
                                    / (metrics["lp_s"] + metrics["ardl_s"]))
    note = ("median over samples of " + ", ".join(
        f"{cmd} {len(samples[cmd])}" for cmd in ROUND)
        + "; pipeline_s and cpu_s sum the five commands' medians")
    return metrics, END_TO_END, invocations, note


# ---------------------------------------------------------------------------
# --trace 1: in-process traced run
# ---------------------------------------------------------------------------

def _in_process(cli, cmd: str, out: str) -> Invocation:
    errors = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([cmd, "--config", "run.ini", "--out", out])
    except Exception:  # a crash is this command's failure, not the run's
        rc = 1
        errors.append(traceback.format_exc(limit=-3))
    wall = time.perf_counter() - t0
    if rc != 0 and not errors:
        errors.append(f"exit code {rc}")
    return Invocation(f"in-process {cmd}", wall, 0.0, 0, rc, Path(out), errors)


def traced_run(w, seed, seconds, work, data, deadline):
    runner = Runner(work, deadline)
    imports = [runner.child("import", ["-c", IMPORT_SNIPPET])
               for _ in range(IMPORT_RUNS)]
    import_s = []
    for inv in imports:
        try:
            import_s.append(float(inv.log.read_text().split()[-1]))
        except (ValueError, IndexError):
            inv.errors.append("import timing not printed")
    if not import_s:
        sys.exit(f"climpanel.cli does not import: {imports[0].errors}")

    sys.path.insert(0, str(SRC))
    import climpanel.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported {cli.__file__}, not the checkout's src/")

    cwd = os.getcwd()
    os.chdir(work)
    tracer = tracing.Tracer()
    try:
        plain = [_in_process(cli, cmd, f"plain/{cmd}") for cmd in COMMANDS]
        tracing.install(tracer)
        traced = [tracer.span(f"cli.{cmd}", _in_process)(cli, cmd,
                                                          f"traced/{cmd}")
                  for cmd in COMMANDS]
    finally:
        tracer.unpatch()
        os.chdir(cwd)

    dirs = {cmd: work / "traced" / cmd for cmd in COMMANDS}
    errors, horizons, cells = _check_outputs(w, seed, data, dirs)
    for inv, cmd in zip(traced, COMMANDS):
        inv.errors += errors[cmd] + checks.same_bytes(work / "plain" / cmd,
                                                      dirs[cmd])

    metrics = {"cli.import_s": statistics.median(import_s)}
    metrics.update(tracing.layer_metrics(tracer.spans))
    metrics["localproj.horizons_failed"] = horizons
    metrics["ardl.cells_failed"] = cells
    metrics["trace.overhead_s"] = (sum(i.wall for i in traced)
                                   - sum(i.wall for i in plain))
    _dump_spans(tracer.spans, w, seed)
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    note = (f"one traced in-process pass; cli.import_s median of "
            f"{len(import_s)} fresh interpreters; last column: the "
            "end-to-end metric the layer should move")
    return metrics, units, imports + plain + traced, note


def _dump_spans(spans, w, seed) -> None:
    out = ROOT / ".climbench_out" / f"spans_{w.name}_seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps([vars(s) for s in spans]) + "\n")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded by numpy and scipy."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    libs = set()
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "commit": commit, "seed": seed,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the panel so a run takes seconds (smoke test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "climpanel" / "__init__.py").is_file():
        print(f"no climpanel sources under {SRC}", file=sys.stderr)
        return 2

    w = inputs.WORKLOADS[args.workload]
    if args.tiny:
        w = inputs.tiny(w)
    work = ROOT / ".climbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        data = inputs.generate(w, args.seed, work / "data")
        inputs.write_config(w, args.seed, work / "run.ini")
        run = traced_run if args.trace else cold_run
        metrics, units, invocations, note = run(
            w, args.seed, args.seconds, work, data, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [i for i in invocations if i.errors]
    for inv in failed:
        print(f"FAILED {inv.label}: {'; '.join(inv.errors)}", file=sys.stderr)
    print(f"climbench {w.name} ({w.regions} regions x {w.quarters} quarters, "
          f"{w.lp_regressions} LP regressions, {w.ardl_cells} ARDL cells), "
          f"seed {args.seed}, trace {args.trace}")
    print(f"  {note}")
    for name, value in metrics.items():
        target = tracing.PER_LAYER[name][1] if args.trace else ""
        shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
        print(f"  {name:28s} {shown} {units[name]:6s} {target}")
    print(f"  {'failed_ratio':28s} {len(failed) / len(invocations):16.6f} "
          f"ratio  {len(failed)} of {len(invocations)} invocations failed")
    print("machine " + json.dumps(machine_record(args.seed)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
