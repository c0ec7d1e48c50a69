"""Mutation check of the oracles: does the suite catch estimator bugs
without the golden hashes?

Each entry of MUTANTS changes one line of the package. For each, the script
applies it to a `git archive` copy of a commit (HEAD by default) and runs
the tier-1 suite under -x with tests/test_golden.py left out. A mutant is
killed when some test fails and survives when the suite passes; the script
prints one line per mutant and exits 1 if any survived.

    python tests/mutants.py [--rev REV] [NAME ...]

NAME picks mutants by a substring of their names. pytest does not collect
this file (it is not test_*.py), and it needs no package beyond the suite's.
"""
import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, old, new); old occurs exactly once in the file
MUTANTS = [
    ("star cutoff 1.96 -> 1.95", "src/climpanel/regress.py",
     '(1.959963984540054, "**")', '(1.95, "**")'),
    ("focal DK factor n/(dof+1)", "src/climpanel/regress.py",
     "meat = meat * (n / dof)", "meat = meat * (n / (dof + 1))"),
    ("focal dof off by one", "src/climpanel/regress.py",
     "dof = n - 1 - n_controls - d.absorbed",
     "dof = n - n_controls - d.absorbed"),
    ("LP bandwidth max(rule, h) without h", "src/climpanel/localproj.py",
     "bandwidth=max(default_bandwidth(n_periods), horizon)",
     "bandwidth=default_bandwidth(n_periods)"),
    ("long-run gradient on phi negated", "src/climpanel/ardl.py",
     "grad[phi_idx] = theta / phi", "grad[phi_idx] = -theta / phi"),
    ("unit-root floor 1e-6 -> 1e-3", "src/climpanel/ardl.py",
     "_PHI_FLOOR = 1e-6", "_PHI_FLOOR = 1e-3"),
    ("LP bandwidth rule off by one", "src/climpanel/localproj.py",
     "bandwidth=max(default_bandwidth(n_periods), horizon)",
     "bandwidth=max(default_bandwidth(n_periods) + 1, horizon)"),
    ("focal rank rule without tolerance", "src/climpanel/regress.py",
     "ok = (sv > _RANK_TOL * sv[:, :1]).all(axis=1)",
     "ok = (sv > 0).all(axis=1)"),
    ("DK small-sample factor times (1 + 1e-7)", "src/climpanel/regress.py",
     "S *= fit.nobs / fit.dof", "S *= fit.nobs / fit.dof * (1 + 1e-7)"),
    ("singleton drop skipped", "src/climpanel/regress.py",
     "(counts[d] == 1)", "(counts[d] == 0)"),
    ("two-way absorbed count one short", "src/climpanel/regress.py",
     "absorbed += int(rank_c)", "absorbed += int(rank_c) - 1"),
    ("focal triangle without the focal columns' Q's", "src/climpanel/regress.py",
     "triangles[:, :-1, -1] = QtZ[:, 1:].T", "pass"),
    ("classical dof without absorbed FE", "src/climpanel/regress.py",
     "dof = n - rank - d.absorbed", "dof = n - rank"),
    ("Bartlett weights over L + 2", "src/climpanel/regress.py",
     "np.arange(bandwidth + 1) / (bandwidth + 1.0)",
     "np.arange(bandwidth + 1) / (bandwidth + 2.0)"),
    ("default bandwidth exponent 2/8", "src/climpanel/regress.py",
     "(n_periods / 100.0) ** (2.0 / 9.0)",
     "(n_periods / 100.0) ** (2.0 / 8.0)"),
    ("DK lag-0 term over T - 1", "src/climpanel/regress.py",
     "S = w[0] * (H.T @ H) / T", "S = w[0] * (H.T @ H) / (T - 1)"),
    ("band quantile of level, not (1 + level) / 2", "src/climpanel/regress.py",
     "q = NormalDist().inv_cdf((1.0 + level) / 2.0)",
     "q = NormalDist().inv_cdf(level)"),
    ("anomaly scale 2/m", "src/climpanel/climate.py",
     "return 2.0 / (m + 1) * (", "return 2.0 / m * ("),
    ("norm window one quarter short", "src/climpanel/climate.py",
     "offsets = range(step, 4 * m + 1, step)",
     "offsets = range(step, 4 * m, step)"),
    ("seasonal shock keeps both signs", "src/climpanel/climate.py",
     "part = (np.maximum(values, 0.0) if POLARITY_SIGN[polarity] > 0",
     "part = (values if POLARITY_SIGN[polarity] > 0"),
    ("annualized over m", "src/climpanel/ardl.py",
     "return theta * 2.0 / (m + 1.0)", "return theta * 2.0 / m"),
    ("summary sd with ddof 0", "src/climpanel/dataset.py",
     ".sum() / (size - 1))", ".sum() / size)"),
    ("LP shock led one quarter", "src/climpanel/localproj.py",
     "entries = [(shock, ds.values(shock), 0) for shock in shocks]",
     "entries = [(shock, shift(ds.values(shock), -1), 0)\n"
     "               for shock in shocks]"),
    ("LP refit on the wrong shock column", "src/climpanel/localproj.py",
     "cols = [j, *range(n, len(design.names))]",
     "cols = [0, *range(n, len(design.names))]"),
    ("join without its clash check", "src/climpanel/dataset.py",
     "    if clash:", "    if False:"),
    ("gap walk one quarter short", "src/climpanel/dataset.py",
     "for code in range(lo, hi + 1):", "for code in range(lo, hi):"),
    ("column reader keeps padded region names", "src/climpanel/dataset.py",
     "any(name != name.strip() for name in names)", "False"),
    ("column reader reads a padded number token", "src/climpanel/dataset.py",
     "or token in values or", "or"),
    ("row loop keeps the blanks around a year", "src/climpanel/dataset.py",
     "int(row[iy].strip())", "int(row[iy])"),
    ("column reader parses years past ASCII", "src/climpanel/dataset.py",
     "np.int64 if text.isascii() else object", "np.int64"),
    ("year bound dropped", "src/climpanel/specs.py",
     "if not -_MAX_YEAR <= year <= _MAX_YEAR:", "if False:"),
    ("sample window ends at its start", "src/climpanel/specs.py",
     "return QuarterIndex.parse(start), QuarterIndex.parse(end)",
     "return QuarterIndex.parse(start), QuarterIndex.parse(start)"),
    ("design window ignored", "src/climpanel/regress.py",
     "cols = window_slice(time, window)", "cols = window_slice(time, None)"),
    ("ARDL without region effects", "src/climpanel/ardl.py",
     'fixed_effects=("region",)', "fixed_effects=()"),
]


def _tier1(copy: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
         "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_golden.py"],
        cwd=copy, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="commit to copy")
    ap.add_argument("names", nargs="*", help="substrings of mutant names")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS
              if not args.names or any(n in m[0] for n in args.names)]
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(copy)], input=archive,
                       check=True)
        for name, file, old, new in chosen:
            path = copy / file
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs "
                                 f"{original.count(old)} times in {file}")
            path.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                run = _tier1(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            failed = [line.split()[1] for line in run.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            if run.returncode == 0:
                survived += 1
                verdict = "survived"
            else:
                verdict = "killed by " + (failed[0] if failed
                                          else f"exit {run.returncode}")
            print(f"{name:45s} {seconds:5.1f} s  {verdict}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
