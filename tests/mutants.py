"""Mutation check of the oracles: does the suite catch estimator bugs
without the golden hashes?

Each entry of MUTANTS changes one line of the package. For each, the script
applies it to a `git archive` copy of a commit (HEAD by default) and runs
the test that last killed it; only if that test passes (or is gone) does it
run the tier-1 suite under -x with tests/test_golden.py left out. A mutant
is killed when some test fails and survives when the suite passes, so the
first step changes no verdict, only how soon it comes. The script prints
one line per mutant, with the test that killed it, and exits 1 if any
survived.

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

# (name, file, old, new, the test that last killed it); old occurs exactly
# once in the file
MUTANTS = [
    ("star cutoff 1.96 -> 1.95", "src/climpanel/regress.py",
     '(1.959963984540054, "**")', '(1.95, "**")',
     "tests/test_regress.py::test_star_cutoffs_pinned"),
    ("focal DK factor n/(dof+1)", "src/climpanel/regress.py",
     "meat = meat * (n / dof)", "meat = meat * (n / (dof + 1))",
     "tests/test_localproj.py::"
     "test_default_bandwidth_counts_periods_left_after_singleton_drop"),
    ("focal dof off by one", "src/climpanel/regress.py",
     "dof = n - 1 - n_controls - d.absorbed",
     "dof = n - n_controls - d.absorbed",
     "tests/test_localproj.py::"
     "test_default_bandwidth_counts_periods_left_after_singleton_drop"),
    ("LP bandwidth max(rule, h) without h", "src/climpanel/localproj.py",
     "bandwidth=max(default_bandwidth(n_periods), horizon)",
     "bandwidth=default_bandwidth(n_periods)",
     "tests/test_localproj.py::test_batched_shocks_sharing_one_sample"),
    ("long-run gradient on phi negated", "src/climpanel/ardl.py",
     "grad[phi_idx] = theta / phi", "grad[phi_idx] = -theta / phi",
     "tests/test_ardl.py::test_long_run_se_matches_the_numerical_jacobian"),
    ("unit-root floor 1e-6 -> 1e-3", "src/climpanel/ardl.py",
     "_PHI_FLOOR = 1e-6", "_PHI_FLOOR = 1e-3",
     "tests/test_ardl.py::test_unit_root_guard"),
    ("LP bandwidth rule off by one", "src/climpanel/localproj.py",
     "bandwidth=max(default_bandwidth(n_periods), horizon)",
     "bandwidth=max(default_bandwidth(n_periods) + 1, horizon)",
     "tests/test_cli.py::test_lp_blank_bandwidth_honours_small_sample_false"),
    ("focal rank rule without tolerance", "src/climpanel/regress.py",
     "ok = (sv > _RANK_TOL * sv[:, :1]).all(axis=1)",
     "ok = (sv > 0).all(axis=1)",
     "tests/test_localproj.py::"
     "test_shock_nearly_a_multiple_of_a_control_fails_as_ols_does[100.0-1e-07]"),
    ("DK small-sample factor times (1 + 1e-7)", "src/climpanel/regress.py",
     "S *= fit.nobs / fit.dof", "S *= fit.nobs / fit.dof * (1 + 1e-7)",
     "tests/test_acceptance.py::test_dk_degenerate_newey_west_oracle"),
    ("singleton drop skipped", "src/climpanel/regress.py",
     "(counts[d] == 1)", "(counts[d] == 0)",
     "tests/test_cli.py::test_library_warning_is_one_stderr_line"),
    ("two-way absorbed count one short", "src/climpanel/regress.py",
     "absorbed += int(rank_c)", "absorbed += int(rank_c) - 1",
     "tests/test_regress.py::"
     "test_within_transform_matches_lsdv_projection[random-fixed_effects0]"),
    ("focal triangle without the focal columns' Q's", "src/climpanel/regress.py",
     "triangles[:, :-1, -1] = QtZ[:, 1:].T", "pass",
     "tests/test_localproj.py::"
     "test_shock_nearly_a_multiple_of_a_control_fails_as_ols_does[100.0-1e-07]"),
    ("classical dof without absorbed FE", "src/climpanel/regress.py",
     "dof = n - rank - d.absorbed", "dof = n - rank",
     "tests/test_localproj.py::"
     "test_default_bandwidth_counts_periods_left_after_singleton_drop"),
    ("Bartlett weights over L + 2", "src/climpanel/regress.py",
     "np.arange(bandwidth + 1) / (bandwidth + 1.0)",
     "np.arange(bandwidth + 1) / (bandwidth + 2.0)",
     "tests/test_acceptance.py::test_dk_degenerate_newey_west_oracle"),
    ("default bandwidth exponent 2/8", "src/climpanel/regress.py",
     "(n_periods / 100.0) ** (2.0 / 9.0)",
     "(n_periods / 100.0) ** (2.0 / 8.0)",
     "tests/test_regress.py::test_default_bandwidth_rule"),
    ("DK lag-0 term over T - 1", "src/climpanel/regress.py",
     "S = w[0] * (H.T @ H) / T", "S = w[0] * (H.T @ H) / (T - 1)",
     "tests/test_acceptance.py::test_dk_degenerate_newey_west_oracle"),
    ("band quantile of level, not (1 + level) / 2", "src/climpanel/regress.py",
     "q = NormalDist().inv_cdf((1.0 + level) / 2.0)",
     "q = NormalDist().inv_cdf(level)",
     "tests/test_acceptance.py::test_lp_recovery_and_coverage"),
    ("anomaly scale 2/m", "src/climpanel/climate.py",
     "return 2.0 / (m + 1) * (", "return 2.0 / m * (",
     "tests/test_acceptance.py::test_anomaly_engine_bruteforce_1e12"),
    ("norm window one quarter short", "src/climpanel/climate.py",
     "offsets = range(step, 4 * m + 1, step)",
     "offsets = range(step, 4 * m, step)",
     "tests/test_acceptance.py::test_anomaly_engine_bruteforce_1e12"),
    ("seasonal shock keeps both signs", "src/climpanel/climate.py",
     "part = (sign_split(values)[POLARITY_SIGN[polarity] < 0]",
     "part = (values",
     "tests/test_climate.py::test_hot_summer_on_negative_series_is_zero"),
    ("annualized over m", "src/climpanel/ardl.py",
     "return theta * 2.0 / (m + 1.0)", "return theta * 2.0 / m",
     "tests/test_acceptance.py::test_annualization_arithmetic"),
    ("summary sd with ddof 0", "src/climpanel/dataset.py",
     ".sum() / (size - 1))", ".sum() / size)",
     "tests/test_dataset.py::"
     "test_summary_stats_keep_the_per_region_quantile_bits"),
    ("LP shock led one quarter", "src/climpanel/localproj.py",
     "entries = [(shock, ds.values(shock), 0) for shock in shocks]",
     "entries = [(shock, shift(ds.values(shock), -1), 0)\n"
     "               for shock in shocks]",
     "tests/test_acceptance.py::test_lp_recovery_and_coverage"),
    ("LP refit on the wrong shock column", "src/climpanel/localproj.py",
     "cols = [j, *range(n, len(design.names))]",
     "cols = [0, *range(n, len(design.names))]",
     "tests/test_localproj.py::"
     "test_flat_shock_fails_alone_with_its_own_message"),
    ("join without its clash check", "src/climpanel/dataset.py",
     "    if clash:", "    if False:",
     "tests/test_cli.py::"
     "test_anomaly_refuses_an_input_series_named_like_a_derived_one"),
    ("gap walk one quarter short", "src/climpanel/dataset.py",
     "for code in range(lo, hi + 1):", "for code in range(lo, hi):",
     "tests/test_dataset.py::"
     "test_load_panel_gap_error_lists_the_holes_region_by_region"),
    ("column reader keeps padded region names", "src/climpanel/dataset.py",
     "any(name != name.strip() for name in names)", "False",
     "tests/test_dataset.py::test_load_panel_agrees_with_the_row_loop"),
    ("column reader reads a padded number token", "src/climpanel/dataset.py",
     "or token in values or", "or",
     "tests/test_dataset.py::"
     "test_files_that_are_not_plain_go_to_the_row_loop[padded-number-token]"),
    ("row loop keeps the blanks around a year", "src/climpanel/dataset.py",
     "int(row[iy].strip())", "int(row[iy])",
     "tests/test_dataset.py::"
     "test_padded_numbers_and_blank_lines_take_the_column_reader[separator-year]"),
    ("column reader parses years past ASCII", "src/climpanel/dataset.py",
     "np.int64 if text.isascii() else object", "np.int64",
     "tests/test_dataset.py::"
     "test_files_that_are_not_plain_go_to_the_row_loop[letter-year]"),
    ("year bound dropped", "src/climpanel/specs.py",
     "if not -_MAX_YEAR <= year <= _MAX_YEAR:", "if False:",
     "tests/test_api.py::test_quarter_errors_keep_their_messages"),
    ("count bound off by one", "src/climpanel/specs.py",
     "if value < low:", "if value < low - 1:",
     "tests/test_climate.py::test_norm_params_validation"),
    ("list rule takes any iterable", "src/climpanel/specs.py",
     "isinstance(value, (tuple, list, range))", 'hasattr(value, "__iter__")',
     "tests/test_api.py::test_spec_values_of_the_wrong_kind"),
    ("repeat check sees no repeat", "src/climpanel/specs.py",
     "if repeated:", "if False:",
     "tests/test_api.py::test_spec_errors_are_typed[lp-horizons-repeated]"),
    ("name check takes anything", "src/climpanel/specs.py",
     "if not isinstance(value, str):", "if False:",
     "tests/test_api.py::test_spec_values_of_the_wrong_kind"),
    ("choice check takes anything", "src/climpanel/specs.py",
     "if _is_array(value) or value not in choices:", "if False:",
     "tests/test_api.py::test_spec_errors_are_typed[norm-mode]"),
    ("sample window ends at its start", "src/climpanel/specs.py",
     "return QuarterIndex.parse(start), QuarterIndex.parse(end)",
     "return QuarterIndex.parse(start), QuarterIndex.parse(start)",
     "tests/test_acceptance.py::test_paper_claims_end_to_end"),
    ("design window ignored", "src/climpanel/regress.py",
     "cols = window_slice(time, window)", "cols = window_slice(time, None)",
     "tests/test_ardl.py::test_lag_order_past_the_panel_builds_no_lag_column"),
    ("ARDL without region effects", "src/climpanel/ardl.py",
     'fixed_effects=("region",)', "fixed_effects=()",
     "tests/test_ardl.py::test_design_column_count_with_region_fe"),
    ("CLI keeps each file's region order", "src/climpanel/cli.py",
     "rows = sorted(range(ds.n_regions), key=ds.regions.__getitem__)",
     "return ds",
     "tests/test_cli.py::test_row_order_and_repeated_rows_change_no_output"),
]


def _tier1(copy: Path, *tests: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
         "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_golden.py", *tests],
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
        for name, file, old, new, killer in chosen:
            path = copy / file
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs "
                                 f"{original.count(old)} times in {file}")
            path.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                # exit 1 is a failed test; any other (4: no such test) runs all
                run = _tier1(copy, killer)
                if run.returncode != 1:
                    run = _tier1(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            # "FAILED <test id> - <message>"; a test id may hold spaces
            failed = [line.split(" ", 1)[1].split(" - ")[0]
                      for line in run.stdout.splitlines()
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
