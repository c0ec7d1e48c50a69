"""End-to-end CLI runs: simulate -> anomaly -> lp -> ardl -> stats."""
import configparser
import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import climpanel
from climpanel import HACSpec, LPSpec, PanelSchema, load_panel
from climpanel.localproj import build_lp_design
from climpanel.regress import default_bandwidth, ols, with_driscoll_kraay
from climpanel.cli import _attach_all, _load, main
from climpanel.config import load_config
from climpanel.errors import EstimationError


BASE_CONFIG = """\
[input]
climate = {data}/climate.csv
prices = {data}/prices.csv

[anomaly]
m = 2,3

[lp]
outcomes = all_items,food
m = 2
horizons = 0-2
lags = 2
level = 0.90

[ardl]
outcomes = all_items,food
m = 2,3
p = 1

[output]
dir = {out}

[simulate]
kind = climate
seed = 77
regions = 4
quarters = 64
start = 1990Q1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated climate + price CSVs plus a config pointing at them."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    out = root / "out"
    cfg_path = root / "run.ini"
    cfg_path.write_text(BASE_CONFIG.format(data=data, out=out),
                        encoding="utf-8")
    code = main(["simulate", "--config", str(cfg_path), "--out", str(data)])
    assert code == 0
    return {"root": root, "data": data, "out": out, "config": cfg_path}


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_simulate_outputs(workspace):
    data = workspace["data"]
    assert (data / "climate.csv").exists()
    assert (data / "prices.csv").exists()
    ds = load_panel(data / "climate.csv")
    assert set(ds.variables) == {"temperature", "precipitation"}
    assert ds.n_regions == 4
    assert ds.n_quarters == 64


def test_anomaly_command_files_and_audit(workspace):
    code = main(["anomaly", "--config", str(workspace["config"])])
    assert code == 0
    out = workspace["out"]
    # two variables x two m values -> four anomaly files plus four audits
    for var in ("temperature", "precipitation"):
        for m in (2, 3):
            assert (out / f"anomaly_{var}_m{m}.csv").exists()
            audit = out / f"norms_audit_{var}_m{m}.csv"
            assert audit.exists()
            ds = load_panel(audit)
            level = ds.values(var)
            norm = ds.values(f"{var}_norm_m{m}")
            anom = ds.values(f"{var}_anom_m{m}")
            defined = np.isfinite(anom)
            scale = 2.0 / (m + 1)
            np.testing.assert_array_equal(
                anom[defined], (scale * (level - norm))[defined])
    report = _read_lines(out / "run_report_anomaly.txt")
    assert report[0] == "command: anomaly"


def test_anomaly_header_comments(workspace):
    out = workspace["out"]
    lines = _read_lines(out / "anomaly_temperature_m2.csv")
    assert lines[0].startswith("# climpanel 0.1")
    assert lines[1].startswith("# config sha256 ")
    assert any(line.startswith("# unit ") for line in lines[:12])


def test_anomaly_constant_input_zero_anomalies(tmp_path):
    # constant climate -> anomaly file of zeros
    rows = ["region,year,quarter,temperature,precipitation"]
    for year in range(2000, 2006):
        for q in (1, 2, 3, 4):
            rows.append(f"a,{year},{q},20.0,55.0")
    (tmp_path / "climate.csv").write_text("\n".join(rows) + "\n",
                                          encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[input]\nclimate = {tmp_path}/climate.csv\n"
        f"[anomaly]\nm = 2\n[output]\ndir = {tmp_path}/out\n",
        encoding="utf-8")
    assert main(["anomaly", "--config", str(cfg)]) == 0
    ds = load_panel(tmp_path / "out" / "anomaly_temperature_m2.csv")
    anom = ds.values("temperature_anom_m2")
    defined = np.isfinite(anom)
    assert defined.any()
    assert np.all(anom[defined] == 0.0)


def test_anomaly_burn_in_exit_code_2(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("m = 2,3", "m = 40", 1),
        encoding="utf-8")
    assert main(["anomaly", "--config", str(cfg)]) == 2


def test_lp_command_files(workspace):
    code = main(["lp", "--config", str(workspace["config"])])
    assert code == 0
    out = workspace["out"]
    shocks = ["temperature_winter_cold_m2", "temperature_spring_hot_m2",
              "temperature_summer_hot_m2", "precipitation_anom_m2_pos",
              "precipitation_anom_m2_neg"]
    outcomes = ["all_items", "food"]
    files = [out / f"irf_{s}__{o}.csv" for s in shocks for o in outcomes]
    assert all(f.exists() for f in files)
    assert len(files) == len(shocks) * len(outcomes)
    # horizons 0-2 -> 3 data rows per file
    for f in files:
        rows = [l for l in _read_lines(f) if not l.startswith("#")]
        assert len(rows) == 1 + 3
    combined = out / "irf_table.csv"
    rows = [l for l in _read_lines(combined) if not l.startswith("#")]
    assert len(rows) == 1 + len(files) * 3
    report = _read_lines(out / "run_report_lp.txt")
    assert any("cells: 10 attempted, 10 estimated, 0 failed" in l
               for l in report)


def test_lp_determinism_byte_identical(workspace, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = workspace["config"]
    assert main(["lp", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["lp", "--config", str(cfg), "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_ardl_command_files(workspace):
    code = main(["ardl", "--config", str(workspace["config"])])
    assert code == 0
    out = workspace["out"]
    table = out / "longrun_table.csv"
    rows = [l for l in _read_lines(table) if not l.startswith("#")]
    # 2 outcomes x 2 m x 4 block variables
    assert len(rows) == 1 + 2 * 2 * 4
    header = rows[0].split(",")
    assert header[:4] == ["outcome", "m", "variable", "theta"]
    for outcome in ("all_items", "food"):
        text = (out / f"longrun_{outcome}.txt").read_text(encoding="utf-8")
        assert "theta[temperature_pos]" in text
        assert "phi" in text
        assert "2 yr MA" in text and "3 yr MA" in text
    ann = [l for l in _read_lines(out / "annualized_summary.csv")
           if not l.startswith("#")]
    assert ann[0].split(",")[:3] == ["outcome", "m", "variable"]
    # annualized = theta * 2/(m+1) in every row
    for line in ann[1:]:
        parts = line.split(",")
        m, theta, annualized = int(parts[1]), float(parts[3]), float(parts[4])
        assert annualized == pytest.approx(theta * 2 / (m + 1), rel=1e-15)


def test_ardl_empty_outcomes_usage_error(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2,3\np = 1", "p = 1"),
        encoding="utf-8")
    assert main(["ardl", "--config", str(cfg)]) == 1


def test_unknown_config_key_rejected(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("lags = 2", "lags = 2\nbogus_key = 1"),
        encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 1


def test_malformed_config_exit_1(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[lp]\nx = 1\n[lp]\ny = 2\n", encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 1


def test_unknown_section_rejected(tmp_path, capsys):
    # [DEFAULT] is an ordinary section too: it is not merged into the others
    cfg = tmp_path / "cfg.ini"
    for text, section in (("[nonsense]\nx = 1\n", "nonsense"),
                          ("[DEFAULT]\nseed = 7\n[simulate]\nregions = 2\n"
                           "quarters = 8\n", "DEFAULT")):
        cfg.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"config error: unknown config section [{section}]\n")


def test_lp_all_cells_failing_exit_3(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2", "outcomes = missing\nm = 2"),
        encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("command, setting, value", [
    ("lp", "lags = 2", "lags = 2\nshocks = nope_a_m{m},nope_b_m{m}"),
    ("ardl", "outcomes = all_items,food\nm = 2,3",
     "outcomes = nope,missing\nm = 2,3"),
], ids=["lp", "ardl"])
def test_all_cells_failing_is_one_short_stderr_line(workspace, tmp_path,
                                                     capsys, command,
                                                     setting, value):
    # each cell's message lists every series of the panel, so the line
    # gives their count and the first message only
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace(setting, value), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 1500
    assert err.startswith(f"estimation error: all 4 {command.upper()} cells "
                          "failed; the first: ")
    assert "VariableLookupError: unknown variable 'nope" in err
    # no file, so no output directory
    assert not (tmp_path / "o").exists()


def _table_rows(path):
    return [line.split(",") for line in _read_lines(path)
            if not line.startswith("#")][1:]


def test_irf_table_rows_are_sorted_copies_of_the_cell_files(workspace,
                                                            tmp_path):
    # shocks and outcomes are configured out of alphabetical order and the
    # horizons out of numeric order; the combined table is sorted by
    # (shock, outcome, horizon) and repeats each cell file's numbers
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2\nhorizons = 0-2",
                 "outcomes = food,all_items\nm = 2\nhorizons = 2,0,1\n"
                 "shocks = temperature_spring_hot_m{m},"
                 "precipitation_anom_m{m}_pos"), encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 0
    out = tmp_path / "o"
    want = sorted(
        ([shock, outcome, row[0], row[1], row[2], row[6]]
         for shock in ("temperature_spring_hot_m2",
                       "precipitation_anom_m2_pos")
         for outcome in ("food", "all_items")
         for row in _table_rows(out / f"irf_{shock}__{outcome}.csv")),
        key=lambda row: (row[0], row[1], int(row[2])))
    assert len(want) == 12
    assert _table_rows(out / "irf_table.csv") == want
    assert any(row[5] for row in want)   # some stars to compare


def test_ardl_cells_follow_configured_outcomes_with_m_ascending(workspace,
                                                               tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2,3",
                 "outcomes = food,all_items\nm = 3,2"), encoding="utf-8")
    assert main(["ardl", "--config", str(cfg)]) == 0
    block = ["temperature_pos", "temperature_neg", "precipitation_pos",
             "precipitation_neg"]
    want = [[outcome, m, variable] for outcome in ("food", "all_items")
            for m in ("2", "3") for variable in block]
    for name in ("longrun_table.csv", "annualized_summary.csv"):
        assert [row[:3] for row in _table_rows(tmp_path / "o" / name)] \
            == want, name


def test_ardl_unknown_outcome_is_a_failed_cell(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2,3",
                 "outcomes = all_items,nope,food\nm = 2,3"), encoding="utf-8")
    assert main(["ardl", "--config", str(cfg)]) == 0
    out = tmp_path / "o"
    report = (out / "run_report_ardl.txt").read_text(encoding="utf-8")
    assert "cells: 6 attempted, 4 estimated, 2 failed\n" in report
    failed = report.split("failed cells:\n")[1].splitlines()
    assert [line.split(":")[0] for line in failed] == [
        "  nope/m=2", "  nope/m=3"]
    assert all(": VariableLookupError: unknown variable 'nope'" in line
               for line in failed)
    assert sorted(p.name for p in out.glob("longrun_*.txt")) == [
        "longrun_all_items.txt", "longrun_food.txt"]
    assert {row[0] for row in _table_rows(out / "longrun_table.csv")} == {
        "all_items", "food"}


def test_lp_default_shocks_follow_renamed_climate_columns(workspace,
                                                          tmp_path):
    # the default [lp] shocks are built from [input] temperature_var and
    # precipitation_var, as ardl's block is, so renaming the climate
    # columns renames the shock files and changes no number
    data = tmp_path / "data"
    data.mkdir()
    (data / "climate.csv").write_text(
        (workspace["data"] / "climate.csv").read_text(encoding="utf-8")
        .replace("temperature", "temp").replace("precipitation", "rain"),
        encoding="utf-8")
    (data / "prices.csv").write_bytes(
        (workspace["data"] / "prices.csv").read_bytes())
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=data, out=tmp_path / "o").replace(
            "[input]\n",
            "[input]\ntemperature_var = temp\nprecipitation_var = rain\n"),
        encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 0
    assert main(["lp", "--config", str(workspace["config"]),
                 "--out", str(tmp_path / "default")]) == 0
    shocks = {"temp_winter_cold_m2": "temperature_winter_cold_m2",
              "temp_spring_hot_m2": "temperature_spring_hot_m2",
              "temp_summer_hot_m2": "temperature_summer_hot_m2",
              "rain_anom_m2_pos": "precipitation_anom_m2_pos",
              "rain_anom_m2_neg": "precipitation_anom_m2_neg"}
    assert len(list((tmp_path / "o").glob("irf_*__*.csv"))) == 10
    for shock, default in shocks.items():
        for outcome in ("all_items", "food"):
            got, want = (
                [l for l in _read_lines(root / f"irf_{name}__{outcome}.csv")
                 if not l.startswith("#")]
                for root, name in ((tmp_path / "o", shock),
                                   (tmp_path / "default", default)))
            assert got == want


def test_default_shocks_keep_braces_in_column_names(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[input]\ntemperature_var = t{m}\nprecipitation_var = r{x}\n",
                   encoding="utf-8")
    assert load_config(str(cfg)).lp.shock_names() == (
        "t{m}_winter_cold_m30", "t{m}_spring_hot_m30", "t{m}_summer_hot_m30",
        "r{x}_anom_m30_pos", "r{x}_anom_m30_neg")


def test_stats_command(workspace, tmp_path):
    out = tmp_path / "stats_out"
    code = main(["stats", "--config", str(workspace["config"]),
                 "--out", str(out)])
    assert code == 0
    rows = [l for l in _read_lines(out / "summary_stats.csv")
            if not l.startswith("#")]
    # 8 variables (6 price + 2 climate) x 4 regions
    assert len(rows) == 1 + 8 * 4
    header = rows[0].split(",")
    assert header == ["variable", "region", "min", "q1", "median", "q3",
                      "max", "mean", "sd"]


def test_each_command_prints_its_summary_line(workspace, tmp_path, capsys):
    out = tmp_path / "o"
    for command, line in (
            ("simulate", f"simulate: wrote climate.csv, prices.csv to {out}"),
            ("anomaly", f"anomaly: wrote 8 files to {out}"),
            ("lp", f"lp: 10/10 cells estimated, outputs in {out}"),
            ("ardl", f"ardl: 4/4 cells estimated, outputs in {out}"),
            ("stats", f"stats: wrote {out / 'summary_stats.csv'}")):
        assert main([command, "--config", str(workspace["config"]),
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == (line + "\n", "")


def test_missing_config_file(tmp_path):
    assert main(["lp", "--config", str(tmp_path / "nope.ini")]) == 1


def test_lp_requires_inputs(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[lp]\noutcomes = x\n", encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 1


def test_m_override(workspace, tmp_path):
    out = tmp_path / "m_override"
    code = main(["anomaly", "--config", str(workspace["config"]),
                 "--out", str(out), "--m", "3"])
    assert code == 0
    assert (out / "anomaly_temperature_m3.csv").exists()
    assert not (out / "anomaly_temperature_m2.csv").exists()


@pytest.mark.parametrize("command, section, key, value, m", [
    ("anomaly", "anomaly", "m", "0", "5"),
    # a_m2 twice with the file's [lp] m = 2; --m 20 makes a_m20 and a_m2
    ("stats", "lp", "shocks", "a_m{m},a_m2", "20"),
])
def test_m_override_replaces_a_bad_file_value(workspace, tmp_path, capsys,
                                              command, section, key, value, m):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=workspace["data"],
                                          out=tmp_path / "o"))
    parser[section][key] = value
    cfg = tmp_path / "cfg.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: [{section}] ")
    assert main([command, "--config", str(cfg), "--m", m]) == 0


@pytest.mark.parametrize("file_m", ["2,3", "0"])
def test_bad_m_override_keeps_its_message(workspace, tmp_path, capsys, file_m):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
                   .replace("[anomaly]\nm = 2,3", f"[anomaly]\nm = {file_m}"),
                   encoding="utf-8")
    assert main(["anomaly", "--config", str(cfg), "--m", "0"]) == 1
    assert capsys.readouterr().err == (
        "config error: --m: [anomaly] each m must be >= 1, got 0\n")


def test_simulate_lp_and_ardl_kinds(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[simulate]\nkind = lp\nquarters = 20\nregions = 2\n"
        f"[output]\ndir = {tmp_path}/o1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == 0
    ds = load_panel(tmp_path / "o1" / "lp_panel.csv")
    assert set(ds.variables) == {"price", "shock"}

    cfg2 = tmp_path / "cfg2.ini"
    cfg2.write_text(
        "[simulate]\nkind = ardl\nquarters = 20\nregions = 2\n"
        f"[output]\ndir = {tmp_path}/o2\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg2)]) == 0
    ds2 = load_panel(tmp_path / "o2" / "ardl_panel.csv")
    assert set(ds2.variables) == {"price", "driver"}


def test_missing_sentinel_schema_round_trip(tmp_path):
    rows = ["region,year,quarter,cpi", "a,2000,1,NA", "a,2000,2,2.0"]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    ds = load_panel(path, PanelSchema(missing="NA"))
    assert math.isnan(ds.values("cpi")[0, 0])


@pytest.mark.parametrize("damage", ["short", "nan", "inf"])
def test_malformed_price_row_exit_2(workspace, tmp_path, damage):
    data = tmp_path / "data"
    data.mkdir()
    (data / "climate.csv").write_bytes(
        (workspace["data"] / "climate.csv").read_bytes())
    lines = (workspace["data"] / "prices.csv").read_text(
        encoding="utf-8").splitlines()
    row = 1 + next(i for i, l in enumerate(lines) if not l.startswith("#"))
    cells = lines[row].split(",")[:-1]
    lines[row] = ",".join(cells if damage == "short" else cells + [damage])
    (data / "prices.csv").write_text("\n".join(lines) + "\n",
                                     encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=data, out=tmp_path / "o"),
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 2


def test_ardl_driscoll_kraay_default_bandwidth_uses_sample_periods(tmp_path):
    # 110 quarters give the rule L=4, the m=3 estimation sample's fewer
    # than 100 periods give L=3; a blank bandwidth must mean the latter
    sim = tmp_path / "sim.ini"
    sim.write_text("[simulate]\nkind = climate\nseed = 8\nregions = 3\n"
                   "quarters = 110\nstart = 1990Q1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(sim),
                 "--out", str(tmp_path / "data")]) == 0

    def run(bandwidth_line, out):
        cfg = tmp_path / f"{out}.ini"
        cfg.write_text(
            BASE_CONFIG.format(data=tmp_path / "data", out=tmp_path / out)
            .replace("m = 2,3\np = 1",
                     f"m = 3\np = 1\nse = driscoll-kraay\n{bandwidth_line}"),
            encoding="utf-8")
        assert main(["ardl", "--config", str(cfg)]) == 0
        rows = [l.split(",") for l in
                _read_lines(tmp_path / out / "longrun_table.csv")
                if not l.startswith("#")][1:]
        return rows

    rule = run("", "rule")
    periods = int(rule[0][-1]) // 3
    assert periods < 100
    assert (default_bandwidth(periods), default_bandwidth(110)) == (3, 4)
    assert rule == run("bandwidth = 3", "explicit")
    assert rule != run("bandwidth = 4", "panel_rule")


def _python(*args, threads=None, code=0):
    """stdout of a child `python *args` that imports climpanel from this
    tree, with OPENBLAS_NUM_THREADS unset or set to threads, which must
    exit with code."""
    src = str(Path(climpanel.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run([sys.executable, *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == code, run.stderr
    return run.stdout


def test_cli_import_leaves_scipy_stats_out():
    out = _python("-c", "import sys, climpanel.cli; "
                        "print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


def test_lp_blank_bandwidth_honours_small_sample_false(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("level = 0.90", "level = 0.90\nsmall_sample = false"),
        encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 0
    assert main(["lp", "--config", str(workspace["config"]),
                 "--out", str(tmp_path / "default")]) == 0
    run = load_config(str(cfg))
    ds = _attach_all(run, _load(run, "lp"), [run.lp.m],
                     seasonal=True)
    name = "irf_temperature_spring_hot_m2__food.csv"
    rows = [l.split(",") for l in _read_lines(tmp_path / "o" / name)
            if not l.startswith("#")][1:]
    default = [l.split(",") for l in _read_lines(tmp_path / "default" / name)
               if not l.startswith("#")][1:]
    spec = LPSpec("food", ("temperature_spring_hot_m2",), lags=2)
    for row, base in zip(rows, default):
        h = int(row[0])
        design = build_lp_design(ds, spec, h)
        bandwidth = max(default_bandwidth(len(np.unique(design.time_codes))), h)
        fit = with_driscoll_kraay(ols(design), HACSpec(bandwidth, False))
        assert row[1] == base[1]
        se = fit.se[fit.names.index(spec.shocks[0])]
        assert float(row[2]) == pytest.approx(se, rel=1e-12)
        assert float(row[2]) < float(base[2])


def test_price_regions_in_another_order_change_no_output(workspace, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "climate.csv").write_bytes(
        (workspace["data"] / "climate.csv").read_bytes())
    prices = (workspace["data"] / "prices.csv").read_text(encoding="utf-8")
    (data / "prices.csv").write_text(prices, encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=data, out=tmp_path / "o"),
                   encoding="utf-8")
    for cmd in ("lp", "ardl"):
        assert main([cmd, "--config", str(cfg),
                     "--out", str(tmp_path / "same")]) == 0
    lines = prices.splitlines(keepends=True)
    body = [l for l in lines if not l.startswith("#")]
    blocks = {}
    for line in body[1:]:
        blocks.setdefault(line.split(",")[0], []).append(line)
    order = list(blocks)[2:] + list(blocks)[:2]
    permuted = [l for l in lines if l.startswith("#")] + body[:1] + [
        line for region in order for line in blocks[region]]
    (data / "prices.csv").write_text("".join(permuted), encoding="utf-8")
    for cmd in ("lp", "ardl"):
        assert main([cmd, "--config", str(cfg),
                     "--out", str(tmp_path / "permuted")]) == 0
    names = sorted(p.name for p in (tmp_path / "same").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "permuted").iterdir())
    for name in names:
        assert ((tmp_path / "same" / name).read_bytes()
                == (tmp_path / "permuted" / name).read_bytes()), name


def test_files_holding_other_regions_name_each_file(workspace, tmp_path,
                                                     capsys):
    # the message used to list the two panels' regions in file order,
    # naming neither file
    data = tmp_path / "data"
    data.mkdir()
    climate, prices = data / "climate.csv", data / "prices.csv"
    climate.write_bytes((workspace["data"] / "climate.csv").read_bytes())
    regions = load_panel(climate).regions
    lines = (workspace["data"] / "prices.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    prices.write_text("".join(l for l in lines
                              if not l.startswith(regions[0] + ",")),
                      encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=data, out=tmp_path / "o"),
                   encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"data error: region lists differ: {climate} has {sorted(regions)}, "
        f"{prices} has {sorted(regions[1:])}\n")


def test_lp_and_ardl_trees_do_not_depend_on_openblas_threads(workspace,
                                                            tmp_path):
    # the QR, the rank check's SVD and the DK products are LAPACK and BLAS
    # calls: one and two OpenBLAS threads must write the same bytes
    dk = tmp_path / "dk.ini"
    dk.write_text(workspace["config"].read_text(encoding="utf-8").replace(
        "p = 1\n", "p = 1\nse = driscoll-kraay\n"), encoding="utf-8")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        for cmd, cfg, sub in (("lp", workspace["config"], "classical"),
                              ("ardl", workspace["config"], "classical"),
                              ("ardl", dk, "dk")):
            _python("-m", "climpanel", cmd, "--config", str(cfg),
                    "--out", str(out / sub), threads=threads)
        trees.append({str(path.relative_to(out)): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert any(name.startswith("dk/longrun") for name in trees[0])
    assert any(name.startswith("classical/irf_") for name in trees[0])
    assert trees[0] == trees[1]


def test_cli_import_loads_no_statistics():
    # statistics pulls in decimal and fractions; only a confidence band
    # needs it, and imports it when it runs
    out = _python("-c", "import sys, climpanel.cli; print([m for m in "
                        "('statistics', 'decimal', 'fractions') "
                        "if m in sys.modules])")
    assert out.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # nor click: the command line is parsed by argparse
    out = _python("-c", "import sys, climpanel.cli; print(sorted(m for m "
                        "in sys.modules if m.startswith(('scipy', 'click'))))")
    assert out.strip() == "[]"


def test_commands_load_no_dataclasses():
    # records are plain classes: dataclasses compiles methods per class with
    # exec, ~1.4 ms each in every cold command
    out = _python("-c", "import sys, climpanel.cli, climpanel.localproj, "
                        "climpanel.ardl, climpanel.simulate; "
                        "print('dataclasses' in sys.modules)")
    assert out.strip() == "False"


# Runs each command through main on the workspace config, writing into argv[2],
# and prints, last, whether numpy.ma had been loaded after each
COMMANDS_AND_NUMPY_MA = """
import json, sys
from climpanel.cli import main
facts = {}
for cmd in ("simulate", "anomaly", "lp", "ardl", "stats"):
    assert main([cmd, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
    facts[cmd] = "numpy.ma" in sys.modules
print(json.dumps(facts))
"""


def test_commands_load_no_numpy_ma(workspace, tmp_path):
    # np.quantile's np.unique step calls np.ma.is_masked, which imports
    # numpy.ma (~14 ms cold); no command needs it
    out = _python("-c", COMMANDS_AND_NUMPY_MA, str(workspace["config"]),
                  str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == dict.fromkeys(
        ("simulate", "anomaly", "lp", "ardl", "stats"), False)


# Imports the package, touches an unknown name and lists it; prints what
# happened and whether numpy got loaded along the way
LAZY_PACKAGE = """
import json, sys, climpanel
facts = {"numpy on import": "numpy" in sys.modules}
try:
    climpanel.no_such_name
except AttributeError as exc:
    facts["unknown name"] = str(exc)
facts["public names not in dir"] = sorted(
    set(climpanel.__all__) - set(dir(climpanel)))
facts["numpy after dir"] = "numpy" in sys.modules
print(json.dumps(facts))
"""


def test_package_import_is_lazy():
    assert json.loads(_python("-c", LAZY_PACKAGE)) == {
        "numpy on import": False,
        "unknown name": "module 'climpanel' has no attribute 'no_such_name'",
        "public names not in dir": [],
        "numpy after dir": False,
    }


# Runs `climpanel` with the arguments after the snippet, as `python -m
# climpanel` does, and prints, last, the climpanel modules the run loaded,
# which of configparser, hashlib and json it loaded (checked before the
# handler imports json) and whether numpy was among its modules
COMMAND_MODULES = """
import atexit, runpy, sys
def report():
    stdlib = [m for m in ("configparser", "hashlib", "json")
              if m in sys.modules]
    import json
    print(json.dumps([sorted(m for m in sys.modules
                             if m.startswith("climpanel.")),
                      stdlib, "numpy" in sys.modules]))
atexit.register(report)
sys.argv = ["climpanel", *sys.argv[1:]]
runpy.run_module("climpanel", run_name="__main__", alter_sys=True)
"""

# what a run that argparse ends loads: the command line (__main__, which
# runs as the __main__ module) and the errors it maps to exit codes
PARSER_MODULES = ["climpanel.errors"]

# what every run that gets past argparse loads: the config layer and the
# setting records its validation builds
CONFIG_MODULES = sorted(PARSER_MODULES + [
    "climpanel._record", "climpanel.config", "climpanel.specs"])

# what every command loads once its config is checked: the command bodies,
# the panel and the anomalies, and with them numpy
PANEL_MODULES = ["climpanel.cli", "climpanel.climate", "climpanel.dataset"]

# the modules each command loads beyond those
OWN_MODULES = {"stats": [], "anomaly": [],
               "simulate": ["climpanel.simulate"],
               "lp": ["climpanel.localproj", "climpanel.regress"],
               "ardl": ["climpanel.ardl", "climpanel.regress"]}

# runs that argparse ends, by their arguments and exit code
PARSER_ONLY = {"--version": (["--version"], 0), "--help": (["--help"], 0),
               "lp --help": (["lp", "--help"], 0), "no command": ([], 1)}

# runs that end before a command runs, once the config is read: load_config
# ends the first, and the check of what the command needs (an [input] path,
# lp's outcomes) the other two
CONFIG_ONLY = {"bad config value": (["stats", "--m", "0"], 1),
               "stats without inputs": (["stats"], 1),
               "lp without outcomes": (["lp"], 1)}


@pytest.mark.parametrize("command",
                         [*PARSER_ONLY, *CONFIG_ONLY, *OWN_MODULES])
def test_each_command_loads_only_the_modules_it_runs(workspace, tmp_path,
                                                     command):
    # every module is compiled from source in a cold run that writes no
    # bytecode, so one a command does not run is start-up time spent; the
    # modules and whether numpy is among them print last. A run that
    # argparse ends loads no standard module the config layer needs.
    if command in PARSER_ONLY:
        args, code = PARSER_ONLY[command]
        expected = PARSER_MODULES, False
    elif command in CONFIG_ONLY:
        args, code = CONFIG_ONLY[command]
        expected = CONFIG_MODULES, False
    else:
        args = [command, "--config", str(workspace["config"]),
                "--out", str(tmp_path)]
        expected, code = (sorted(CONFIG_MODULES + PANEL_MODULES
                                 + OWN_MODULES[command]), True), 0
    modules, stdlib, numpy = json.loads(_python(
        "-c", COMMAND_MODULES, *args, code=code).splitlines()[-1])
    assert (modules, numpy) == expected
    if command in PARSER_ONLY:
        assert stdlib == []


def test_each_command_name_has_one_body():
    # __main__._COMMANDS is the one list of command names; run takes each
    # command's body from cli by its name
    from climpanel import __main__, cli
    assert sorted(name for name in vars(cli) if name.startswith("_cmd_")) \
        == sorted(f"_cmd_{name}" for name in __main__._COMMANDS)


def test_config_layer_loads_no_command_line_and_no_numpy():
    out = _python("-c", "import sys, climpanel.config; "
                        "print('climpanel.cli' in sys.modules, "
                        "'numpy' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_spec_records_load_no_estimator():
    out = _python("-c", "import json, sys, climpanel; "
                        "climpanel.LPSpec, climpanel.ARDLSpec, climpanel.HACSpec; "
                        "climpanel.QuarterIndex, climpanel.PanelSchema; "
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m.startswith('climpanel.'))), "
                        "'numpy' in sys.modules)")
    modules, numpy = out.strip().rsplit(" ", 1)
    assert (json.loads(modules), numpy) == (
        ["climpanel._record", "climpanel.errors", "climpanel.specs"], "False")


# With a RUN line after it, runs `climpanel stats` with the arguments after
# the snippet, then prints the OpenBLAS thread setting the run saw, whether
# it had to load numpy after the package import and whether the cyclic
# garbage collector was still on; the run ends the process, so an exit
# handler prints
MODULE_RUN = """
import atexit, gc, os, runpy, sys
import climpanel
before = "numpy" in sys.modules
atexit.register(lambda: print(os.environ.get("OPENBLAS_NUM_THREADS"), before,
                              "numpy" in sys.modules, gc.isenabled()))
sys.argv = ["climpanel", "stats", *sys.argv[1:]]
"""

# the last line of a snippet that runs the command, in each form:
# `python -m climpanel`, and pip's `climpanel` script, which calls
# sys.exit(main())
RUN = {"module": 'runpy.run_module("climpanel", run_name="__main__", '
                 'alter_sys=True)\n',
       "script": "from climpanel.__main__ import main; sys.exit(main())\n"}
# the interpreter arguments that run the command in each form
COMMAND = {"module": ["-m", "climpanel"],
           "script": ["-c", "import sys\n" + RUN["script"]]}


@pytest.mark.parametrize("threads, seen", [(None, "1"), ("2", "2")])
def test_entry_point_runs_openblas_on_one_thread_by_default(workspace,
                                                            tmp_path, threads,
                                                            seen):
    for run in RUN.values():
        lines = _python("-c", MODULE_RUN + run,
                        "--config", str(workspace["config"]),
                        "--out", str(tmp_path), threads=threads).splitlines()
        assert lines[0] == f"stats: wrote {tmp_path / 'summary_stats.csv'}"
        assert lines[-1] == f"{seen} False True False"


def test_commands_leave_no_array_record_or_error_to_the_cyclic_collector(
        workspace, tmp_path):
    # the entry point runs with the cyclic collector off, which frees
    # nothing only while no array, panel, record or error ends up in a
    # reference cycle; DEBUG_SAVEALL keeps what each collection finds
    from climpanel._record import Record
    from climpanel.dataset import PanelDataset
    from climpanel.errors import ClimPanelError
    runs = [(cmd, workspace["config"], 0)
            for cmd in ("simulate", "anomaly", "lp", "ardl", "stats")]
    # lp and ardl with one failed cell of two, then with every cell failed
    for outcomes, code in (("all_items,nope", 0), ("nope", 3)):
        cfg = tmp_path / f"{outcomes}.ini"
        cfg.write_text(BASE_CONFIG.format(data=workspace["data"], out="")
                       .replace("all_items,food", outcomes), encoding="utf-8")
        runs += [("lp", cfg, code), ("ardl", cfg, code)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for i, (cmd, cfg, code) in enumerate(runs):
            assert main([cmd, "--config", str(cfg),
                         "--out", str(tmp_path / str(i))]) == code
        gc.collect()
        kept = [type(obj).__name__ for obj in gc.garbage if isinstance(
            obj, (np.ndarray, PanelDataset, Record, ClimPanelError))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []


# With a RUN line after it, runs the command with the arguments after the
# snippet, under an exit handler registered before the run, which must
# still run, and an object that only interpreter teardown would free
MODULE_RUN_WITH_HANDLER = """
import atexit, runpy, sys
class Held:
    def __del__(self):
        print("torn down")
held = Held()
atexit.register(print, "exit handler ran")
sys.argv = ["climpanel", *sys.argv[1:]]
"""


def test_module_run_flushes_both_pipes_and_runs_exit_handlers(workspace,
                                                              tmp_path):
    # both forms end in os._exit, which drops what is still buffered; with
    # PYTHONUNBUFFERED unset, pipes are block-buffered
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(climpanel.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    missing = tmp_path / "missing.ini"
    missing.write_text(workspace["config"].read_text(encoding="utf-8")
                       .replace("climate.csv", "no_such.csv"),
                       encoding="utf-8")
    cfg, out = str(workspace["config"]), str(tmp_path / "o")
    for form, command in COMMAND.items():
        handled = ["-c", MODULE_RUN_WITH_HANDLER + RUN[form]]
        for args, code, stream, start in (
                ([*command, "stats", "--config", cfg, "--out", out],
                 0, "stdout", "stats: wrote "),
                ([*command, "stats", "--config", cfg, "--m", "0"],
                 1, "stderr", "config error: "),
                ([*command, "stats", "--config", str(missing)],
                 2, "stderr", "data error: "),
                ([*handled, "stats", "--config", cfg, "--out", out],
                 0, "stdout", "stats: wrote ")):
            run = subprocess.run([sys.executable, *args], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == code, form
            lines = getattr(run, stream).splitlines()
            assert lines[0].startswith(start), form
            if args[:2] == handled:
                # no teardown: the held object is never freed
                assert lines[1:] == ["exit handler ran"], form


@pytest.mark.parametrize("command, unbuffered", [
    ("stats", True), ("stats", False), ("--version", False),
    ("--version", True), ("--help", False), ("--help", True)])
def test_closed_stdout_is_one_stderr_line_and_exit_1(workspace, tmp_path,
                                                      command, unbuffered):
    # a pipe whose reader has gone: an unbuffered print fails at once, a
    # buffered one when stdout is flushed; neither may end in a traceback
    # or in Python's own "Exception ignored" report at shutdown
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(climpanel.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        for form, start in COMMAND.items():
            args = [command]
            if command == "stats":
                args += ["--config", str(workspace["config"]),
                         "--out", str(tmp_path / form)]
            run = subprocess.run([sys.executable, *start, *args], env=env,
                                 stdout=write, stderr=subprocess.PIPE,
                                 text=True)
            assert run.returncode == 1, form
            assert "Traceback" not in run.stderr
            assert "Exception ignored" not in run.stderr
            assert len(run.stderr.splitlines()) == 1
            assert run.stderr.startswith("error: cannot write to stdout: ")
    finally:
        os.close(write)
    if command == "stats":
        assert main(["stats", "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "open")]) == 0
        for form in COMMAND:
            for name in ("summary_stats.csv", "run_report_stats.txt"):
                assert ((tmp_path / form / name).read_bytes()
                        == (tmp_path / "open" / name).read_bytes())


def test_climpanel_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    module, _, name = project["scripts"]["climpanel"].partition(":")
    assert (getattr(importlib.import_module(module), name)
            is importlib.import_module("climpanel.__main__").main)
    # numpy is the one runtime dependency
    assert [re.match(r"[\w.-]+", dep).group()
            for dep in project["dependencies"]] == ["numpy"]


def _benchmark_tracing():
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root))
    try:
        return importlib.import_module("climbench.tracing")
    finally:
        sys.path.remove(str(root))


def test_benchmark_tracer_patches_current_modules():
    # the benchmark's --trace 1 wraps layer functions by attribute name;
    # a rename in the program must fail here, not only in the benchmark
    tracing = _benchmark_tracing()
    Tracer, install = tracing.Tracer, tracing.install
    from climpanel import cli, localproj, regress
    before = {(m.__name__, a): getattr(m, a) for m, a in (
        (cli, "load_panel"), (cli, "write_panel"), (cli, "_write_csv"),
        (cli, "attach_anomaly_features"),
        (cli, "estimate_irf"), (localproj, "build_lp_design"),
        (localproj, "ols"), (regress, "within_transform"),
        (regress, "vcov_driscoll_kraay"))}
    tracer = Tracer()
    install(tracer)
    try:
        for (mod, attr), fn in before.items():
            assert getattr(sys.modules[mod], attr) is not fn
    finally:
        tracer.unpatch()
    for (mod, attr), fn in before.items():
        assert getattr(sys.modules[mod], attr) is fn


def test_benchmark_tracer_sees_every_layer_it_wraps(workspace, tmp_path):
    # a patched name that the program no longer calls through records no
    # span; the benchmark's per-layer metrics would then read zero
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for command in ("simulate", "anomaly", "lp", "ardl", "stats"):
            assert main([command, "--config", str(workspace["config"]),
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.unpatch()
    names = {span.name for span in tracer.spans}
    assert [name for name in (
        "dataset.load_panel", "dataset.write_panel", "climate.attach",
        "localproj.estimate_irf", "localproj.design", "ardl.estimate_ardl",
        "ardl.design", "regress.ols", "regress.absorb", "cli.write_csv")
        if name not in names] == []


# a negative horizon is a list, never the a-b range form
_OUT_OF_RANGE_MESSAGES = {
    "lp.horizons=-2": "[lp] each horizon must be >= 0, got -2",
    "lp.horizons=-1-3": "[lp] horizons: invalid literal for int() with "
                        "base 10: '-1-3'",
    "lp.horizons=5-2": "[lp] horizons: empty horizon range '5-2'",
    "anomaly.seasonal=maybe": "[anomaly] seasonal: expected true/false, got "
                              "'maybe'",
    "anomaly.m=3,03": "[anomaly] m lists 3 twice",
    "--m=3,3": "--m: [anomaly] m lists 3 twice",
    "lp.horizons=0,0": "[lp] horizons lists 0 twice",
    "stats.variables=food,all_items,food": "[stats] variables lists 'food' "
                                           "twice",
    "lp.shocks=temperature_anom_m{m},temperature_anom_m2":
        "[lp] shocks lists 'temperature_anom_m2' twice",
    "input.region_col=year":
        "[input] region_col, year_col and quarter_col: region, year and "
        "quarter must name three different columns, got ('year', 'year', "
        "'quarter')",
    "input.quarter_col=year":
        "[input] region_col, year_col and quarter_col: region, year and "
        "quarter must name three different columns, got ('region', 'year', "
        "'year')",
    "input.precipitation_var=temperature":
        "[input] temperature_var and precipitation_var must name two "
        "different columns, got ('temperature', 'temperature')",
    "lp.fixed_effects=year":
        "[lp] fixed_effects may name region and time, each once, got "
        "('year',)",
    "input.start=2002Q5": "[input] start: cannot parse quarter label "
                          "'2002Q5' (want e.g. 2002Q1)",
    "input.end=x": "[input] end: cannot parse quarter label 'x' (want e.g. "
                   "2002Q1)",
    "simulate.start=1962Q0": "[simulate] start: cannot parse quarter label "
                             "'1962Q0' (want e.g. 2002Q1)",
    "--m=a": "--m: invalid literal for int() with base 10: 'a'",
    # the labels are echoed as written, not as parsed
    "input.start=2000q1; input.end=1995Q4":
        "[input] start must not be after [input] end, got 2000q1 > 1995Q4",
}


@pytest.mark.parametrize("command, setting", [
    ("anomaly", "anomaly.m="),
    ("anomaly", "anomaly.m=2,0"),
    ("anomaly", "--m=0"),
    ("ardl", "ardl.m="),
    ("ardl", "ardl.m=0"),
    ("ardl", "ardl.p=-1"),
    ("ardl", "ardl.bandwidth=-1"),
    ("lp", "lp.m=0"),
    ("lp", "lp.horizons="),
    ("lp", "lp.horizons=0,-1"),
    ("lp", "lp.horizons=-2"),
    ("lp", "lp.horizons=-1-3"),
    ("lp", "lp.horizons=5-2"),
    ("anomaly", "anomaly.seasonal=maybe"),
    ("lp", "lp.lags=-1"),
    ("lp", "lp.bandwidth=-2"),
    ("lp", "lp.shocks="),
    ("lp", "lp.fixed_effects=region,region"),
    ("lp", "lp.fixed_effects=year"),
    # every list names each entry once
    ("anomaly", "anomaly.m=3,03"),
    ("anomaly", "--m=3,3"),
    ("ardl", "ardl.m=2,2"),
    ("ardl", "ardl.outcomes=food,food"),
    ("lp", "lp.outcomes=food,food"),
    ("lp", "lp.horizons=0,0"),
    ("lp", "lp.shocks=temperature_anom_m{m},temperature_anom_m2"),
    ("stats", "stats.variables=food,all_items,food"),
    ("simulate", "simulate.regions=0"),
    ("simulate", "simulate.quarters=0"),
    ("simulate", "simulate.start=1962Q5"),
    ("simulate", "simulate.start=1962Q0"),
    ("stats", "input.start=2002Q5"),
    ("stats", "input.end=x"),
    ("anomaly", "--m=a"),
    # a setting may hold several assignments, joined by "; "
    ("stats", "input.start=2000q1; input.end=1995Q4"),
    ("simulate", "simulate.seed=-1"),
    ("stats", "input.climate=data\0climate.csv"),
    ("stats", "output.dir=o\0ut"),
    ("stats", "--out=o\0ut"),
    # every command builds [input], so simulate rejects it too
    ("simulate", "input.region_col=year"),
    ("stats", "input.quarter_col=year"),
    # one variable's anomaly files would overwrite the other's
    ("anomaly", "input.precipitation_var=temperature"),
    ("ardl", "input.precipitation_var=temperature"),
])
def test_config_value_out_of_range_exit_1(workspace, tmp_path, capsys,
                                          command, setting):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=workspace["data"],
                                          out=tmp_path / "o"))
    args = []
    for assignment in setting.split("; "):
        target, value = assignment.split("=", 1)
        if target.startswith("--"):
            args += [target, value]
        else:
            section, key = target.split(".")
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = value
    cfg = tmp_path / "cfg.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert _OUT_OF_RANGE_MESSAGES.get(setting, "") in err


@pytest.mark.parametrize("setting", [
    "lp.horizons=-2", "lp.lags=-1", "lp.level=1", "lp.bandwidth=-1",
    "ardl.p=-1", "ardl.bandwidth=-1", "input.region_col=year",
    "input.temperature_var=precipitation", "lp.fixed_effects=year",
])
def test_config_error_comes_before_any_data_error(workspace, tmp_path,
                                                  capsys, setting):
    # the library specs hold these rules, and the config still applies them
    # before any data is read: the missing climate file is never opened
    target, value = setting.split("=")
    section, key = target.split(".")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=workspace["data"],
                                          out=tmp_path / "o"))
    parser.set("input", "climate", str(tmp_path / "missing.csv"))
    cfg = tmp_path / "cfg.ini"
    command = "stats" if section == "input" else section
    # a list's bad entry is named as one entry, not by the list's key
    named = {"lp.horizons": "[lp] each horizon"}.get(target,
                                                      f"[{section}] {key}")
    for change, code, start in ((None, 2, "data error: "),
                                (value, 1, f"config error: {named}")):
        if change is not None:
            parser.set(section, key, change)
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert main([command, "--config", str(cfg)]) == code
        assert capsys.readouterr().err.startswith(start)


@pytest.mark.parametrize("command", ["lp", "ardl"])
def test_missing_price_path_comes_before_the_climate_file(workspace, tmp_path,
                                                          capsys, command):
    # both [input] paths are checked before either file is opened
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=workspace["data"],
                                          out=tmp_path / "o"))
    parser.set("input", "climate", str(tmp_path / "missing.csv"))
    parser.remove_option("input", "prices")
    cfg = tmp_path / "cfg.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error: [input] prices: path to the price CSV is required\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pattern", [
    "x_{0}", "x_{m!z}", "x_{", "x_{m.foo}", "x_{m[0]}",
])
def test_bad_shock_placeholder_is_a_config_error(workspace, tmp_path, capsys,
                                                 pattern):
    # every command builds [lp], so stats fails on it too
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=workspace["data"],
                                      out=tmp_path / "o")
                   .replace("[lp]\n", f"[lp]\nshocks = {pattern}\n"),
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"config error: [lp] shocks: bad placeholder in {(pattern,)} "
        "(only {m} is substituted)\n")


@pytest.mark.parametrize("command", ["lp", "ardl", "stats"])
def test_reversed_input_window_exit_1(workspace, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=workspace["data"],
                                      out=tmp_path / "o")
                   .replace("[input]\n",
                            "[input]\nstart = 2000Q1\nend = 1995Q4\n"),
                   encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error: [input] start must not be after [input] end, got "
        "2000Q1 > 1995Q4\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--bogus"], ["-h"], ["lp", "-h"], ["lp", "--seed", "x"],
    ["lp", "--config"], ["lp", "--c", "x"], ["lp", "--conf", "x"],
    ["lp", "extra"], ["lp", "--config", "x", "--config"],
])
def test_malformed_command_line_exit_1(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: climpanel")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: climpanel [--version] [--help] COMMAND"),
    (["lp", "--help"], "usage: climpanel lp [--config PATH] [--out DIR] "
                       "[--m LIST] [--seed N] [--help]"),
    (["stats", "--config", "x", "--help"], "usage: climpanel stats "),
    (["--version"], f"climpanel, version {climpanel.__version__}\n"),
])
def test_help_and_version_exit_0_on_stdout(argv, usage, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage)
    assert err == ""


@pytest.mark.parametrize("key, column", [("year_col", "quarter"),
                                         ("region_col", "year")])
def test_repeated_key_column_exit_1(workspace, tmp_path, capsys, key,
                                    column):
    # a key column named twice must not be read as a value column
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=workspace["data"],
                                      out=tmp_path / "o")
                   .replace("[input]\n", f"[input]\n{key} = {column}\n"),
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: [input] region_col, year_col and quarter_col: region, "
        "year and quarter must name three different columns")


@pytest.mark.parametrize("damage", ["missing", "directory", "not-utf8",
                                    "header-only", "repeated-column"])
def test_unreadable_or_malformed_input_exit_2(workspace, tmp_path, capsys,
                                              damage):
    data = tmp_path / "data"
    data.mkdir()
    (data / "prices.csv").write_bytes(
        (workspace["data"] / "prices.csv").read_bytes())
    lines = (workspace["data"] / "climate.csv").read_text(
        encoding="utf-8").splitlines()
    head = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    climate = data / "climate.csv"
    if damage == "directory":
        climate.mkdir()
    elif damage == "not-utf8":
        climate.write_bytes("\n".join(lines).encode() + b"\nR01,2100,1,\xff,1\n")
    elif damage == "header-only":
        climate.write_text("\n".join(lines[:head + 1]) + "\n", encoding="utf-8")
    elif damage == "repeated-column":
        # region,year,quarter,temperature,temperature: the second column
        # must not be dropped in silence
        cols = lines[head].split(",")
        lines[head] = ",".join(cols[:-1] + cols[-2:-1])
        climate.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=data, out=tmp_path / "o"),
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {climate}: ")
    assert "Traceback" not in err


# the first year used to end in an IndexError traceback from the grid, the
# second in "missing quarters: " naming no quarter
@pytest.mark.parametrize("year", ["99999999999999999999",
                                  "2305843009213693952"])
def test_year_past_the_int64_bound_exit_2(workspace, tmp_path, capsys, year):
    data = tmp_path / "data"
    data.mkdir()
    (data / "prices.csv").write_bytes(
        (workspace["data"] / "prices.csv").read_bytes())
    lines = (workspace["data"] / "climate.csv").read_text(
        encoding="utf-8").splitlines()
    cells = lines[-1].split(",")   # region,year,quarter,...
    lines[-1] = ",".join([cells[0], year, *cells[2:]])
    climate = data / "climate.csv"
    climate.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=data, out=tmp_path / "o"),
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {climate}:{len(lines)}: bad year/quarter: year must be "
        f"in -{2**60}..{2**60}, got {year}\n")


@pytest.mark.parametrize("command", ["simulate", "anomaly", "lp", "ardl",
                                     "stats"])
def test_out_naming_an_existing_file_exit_1(workspace, tmp_path, capsys,
                                            command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    code = main([command, "--config", str(workspace["config"]),
                 "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory '{taken}': ")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_empty_output_directory_exit_1(workspace, tmp_path, capsys,
                                       monkeypatch):
    # an empty [output] dir would name the config file's directory and an
    # empty --out the working directory; . still names the latter
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE_CONFIG.format(data=workspace["data"], out=""),
                   encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for args, message in (
            ([], "[output] dir must not be empty (. is the config file's "
                 "directory)"),
            (["--out", ""], "--out must not be empty (. is the working "
                            "directory)")):
        assert main(["stats", "--config", str(cfg), *args]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "work"]
    assert list(work.iterdir()) == []
    assert main(["stats", "--config", str(cfg), "--out", "."]) == 0
    assert sorted(p.name for p in work.iterdir()) == [
        "run_report_stats.txt", "summary_stats.csv"]


@pytest.mark.parametrize("command, setting, column, written", [
    ("lp", "lp.outcomes", "all_items",
     "irf_temperature_winter_cold_m2__all/items.csv"),
    ("ardl", "ardl.outcomes", "all_items", "longrun_all/items.txt"),
    ("anomaly", "input.temperature_var", "temperature",
     "anomaly_temp/x_m2.csv"),
], ids=["lp", "ardl", "anomaly"])
def test_series_name_with_a_path_separator_exit_1(workspace, tmp_path, capsys,
                                                  command, setting, column,
                                                  written):
    # a CPI component such as food/beverages names a file, not a directory
    renamed = {"all_items": "all/items", "temperature": "temp/x"}[column]
    data = tmp_path / "data"
    data.mkdir()
    for name in ("climate.csv", "prices.csv"):
        text = (workspace["data"] / name).read_text(encoding="utf-8")
        (data / name).write_text(text.replace(column, renamed),
                                 encoding="utf-8")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=data, out=tmp_path / "o"))
    section, key = setting.split(".")
    parser[section][key] = renamed
    cfg = tmp_path / "cfg.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'o' / written}: "
                                       "cannot write: not a plain file name\n")


def _panel_csv(path, columns, blank=lambda region, t: False, quarters=40):
    """A panel CSV of 3 regions by `quarters` quarters from 2000Q1 with
    positive seeded values of columns; blank(region, t) leaves a row's cells
    empty."""
    rng = np.random.default_rng(7)
    rows = [",".join(["region", "year", "quarter", *columns])]
    for region in ("r1", "r2", "r3"):
        for t in range(quarters):
            values = 1.0 + rng.random(len(columns))
            cells = ["" if blank(region, t) else f"{v:.6f}" for v in values]
            rows.append(",".join([region, str(2000 + t // 4), str(t % 4 + 1),
                                  *cells]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _lp_config(tmp_path, lp_lines, blank_prices=lambda region, t: False):
    """tmp_path/cfg.ini for lp on a climate file holding the series a__b and
    a, and a price file holding c and b__c; outputs go to tmp_path/out."""
    _panel_csv(tmp_path / "climate.csv",
               ["temperature", "precipitation", "a__b", "a"])
    _panel_csv(tmp_path / "prices.csv", ["c", "b__c"], blank_prices)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[input]\nclimate = {tmp_path / 'climate.csv'}\n"
                   f"prices = {tmp_path / 'prices.csv'}\n"
                   f"[lp]\nm = 2\n{lp_lines}\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    return cfg


def test_two_cells_naming_one_file_exit_1(tmp_path, capsys):
    # irf_<shock>__<outcome>.csv: the cells (a__b, c) and (a, b__c) both
    # name irf_a__b__c.csv, and the second may not overwrite the first
    cfg = _lp_config(tmp_path, "shocks = a__b, a\noutcomes = c, b__c\n"
                               "horizons = 0-1\nlags = 1")
    assert main(["lp", "--config", str(cfg)]) == 1
    path = tmp_path / "out" / "irf_a__b__c.csv"
    assert capsys.readouterr().err == (
        f"error: {path}: cannot write: this run already wrote a file of "
        "that name\n")
    assert path.read_text(encoding="utf-8").count("\n") > 2


def test_library_warning_is_one_stderr_line(tmp_path):
    # region r3 has prices in two quarters only, so one row of the lp
    # design at horizon 0 is a singleton region group and is dropped
    cfg = _lp_config(tmp_path, "shocks = a\noutcomes = c\nhorizons = 0\n"
                               "lags = 0",
                     lambda region, t: region == "r3" and t not in (10, 11))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(climpanel.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "climpanel", "lp",
                          "--config", str(cfg)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stderr == ("warning: dropped 1 observation(s) in singleton "
                          "fixed-effect group(s); they have no within "
                          "variation\n")


def test_repeated_library_warning_is_one_line_with_its_count(tmp_path,
                                                            capsys):
    # region r3 has prices in two quarters only, so each outcome's fit at
    # horizon 0 drops one row of it as a singleton region group
    cfg = _lp_config(tmp_path, "shocks = a\noutcomes = c, b__c\n"
                               "horizons = 0\nlags = 0",
                     lambda region, t: region == "r3" and t not in (10, 11))
    assert main(["lp", "--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert err == ("warning: dropped 1 observation(s) in singleton "
                   "fixed-effect group(s); they have no within variation "
                   "(2 times)\n")


def test_warnings_print_before_the_error_line(workspace, capsys,
                                              monkeypatch):
    # a command that warns, then fails: each distinct text once, in order
    # of first occurrence, then the error line
    from climpanel import cli

    def body(cfg, run):
        for _ in range(3):
            warnings.warn("first")
        warnings.warn("second\nline")
        raise EstimationError("every cell failed")

    monkeypatch.setattr(cli, "_cmd_stats", body)
    assert main(["stats", "--config", str(workspace["config"])]) == 3
    assert capsys.readouterr().err == ("warning: first (3 times)\n"
                                       "warning: second line\n"
                                       "estimation error: every cell failed\n")


def test_anomaly_refuses_an_input_series_named_like_a_derived_one(
        tmp_path, capsys):
    # the input column would otherwise be replaced by the computed anomaly
    _panel_csv(tmp_path / "climate.csv",
               ["temperature", "precipitation", "temperature_anom_m20"],
               quarters=88)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[input]\nclimate = {tmp_path / 'climate.csv'}\n"
                   f"[anomaly]\nm = 20\n[output]\ndir = {tmp_path / 'out'}\n",
                   encoding="utf-8")
    assert main(["anomaly", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "'temperature_anom_m20'" in err
    assert not (tmp_path / "out").exists()


def test_longrun_label_keeps_a_climate_columns_own_infix(tmp_path):
    # the block variable temp_anom_m2_anom_m2_pos loses the infix that
    # attach added, not the one the column's own name holds
    _panel_csv(tmp_path / "climate.csv", ["temp_anom_m2", "precipitation"])
    _panel_csv(tmp_path / "prices.csv", ["c"])
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[input]\nclimate = {tmp_path / 'climate.csv'}\n"
                   f"prices = {tmp_path / 'prices.csv'}\n"
                   "temperature_var = temp_anom_m2\n"
                   "[ardl]\noutcomes = c\nm = 2\np = 1\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["ardl", "--config", str(cfg)]) == 0
    labels = ["temp_anom_m2_pos", "temp_anom_m2_neg",
              "precipitation_pos", "precipitation_neg"]
    for name in ("longrun_table.csv", "annualized_summary.csv"):
        rows = _table_rows(tmp_path / "out" / name)
        assert [row[2] for row in rows] == labels
    text = (tmp_path / "out" / "longrun_c.txt").read_text(encoding="utf-8")
    assert [line.split()[0] for line in text.splitlines()
            if line.startswith("theta[")] == [f"theta[{v}]" for v in labels]


def test_longrun_text_widens_its_label_column_to_the_longest_label(tmp_path):
    # theta[precipitation_mm_pos] is 27 characters, past the 24 of the
    # shortest label column
    _panel_csv(tmp_path / "climate.csv", ["temperature", "precipitation_mm"])
    _panel_csv(tmp_path / "prices.csv", ["c"])
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[input]\nclimate = {tmp_path / 'climate.csv'}\n"
                   f"prices = {tmp_path / 'prices.csv'}\n"
                   "precipitation_var = precipitation_mm\n"
                   "[ardl]\noutcomes = c\nm = 2,3\np = 1\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["ardl", "--config", str(cfg)]) == 0
    lines = [line for line in _read_lines(tmp_path / "out" / "longrun_c.txt")
             if not line.startswith("#")]
    header = lines[2]
    ends = [m.end() for m in re.finditer(r"\d+ yr MA", header)]
    assert len(ends) == 2 and header.startswith(" " * 27 + " ")
    rows = lines[3:]
    assert "theta[precipitation_mm_pos]" in {row.split()[0] for row in rows}
    assert rows[-1].startswith("nobs ")
    for row in rows:   # value, (se) and nobs rows
        assert len(row) == ends[-1], row
        assert all(row[end - 1] != " " for end in ends), row


def _project(root, climate, prices):
    """root/run.ini naming root/data/{climate,prices}.csv relatively."""
    (root / "data").mkdir(parents=True)
    (root / "data" / "climate.csv").write_text(climate, encoding="utf-8")
    (root / "data" / "prices.csv").write_text(prices, encoding="utf-8")
    (root / "run.ini").write_text(BASE_CONFIG.format(data="data", out="out"),
                                  encoding="utf-8")
    return root / "run.ini"


def test_config_paths_resolve_against_the_config_file(workspace, tmp_path,
                                                      monkeypatch):
    # [input] paths and [output] dir are relative to the config file, --out
    # to the working directory; the config hash keeps the paths as written
    texts = [(workspace["data"] / name).read_text(encoding="utf-8")
             for name in ("climate.csv", "prices.csv")]
    _project(tmp_path / "proj", *texts)
    sub = tmp_path / "proj" / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    assert main(["stats", "--config", "../run.ini"]) == 0
    assert main(["stats", "--config", "../run.ini", "--out", "here"]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["stats", "--config", "proj/run.ini", "--out", "cwd"]) == 0
    got = {(path / "summary_stats.csv").read_bytes()
           for path in (tmp_path / "proj" / "out", sub / "here",
                        tmp_path / "cwd")}
    assert len(got) == 1


def test_spreadsheet_exports_run_as_their_plain_copies(workspace, tmp_path,
                                                      monkeypatch):
    # a config and panel files with a byte-order mark and CRLF line ends,
    # as spreadsheet tools write them, give the plain copies' outputs
    texts = [(workspace["data"] / name).read_text(encoding="utf-8")
             for name in ("climate.csv", "prices.csv")]
    for name in ("plain", "exported"):
        _project(tmp_path / name, *texts)
    for path in ("run.ini", "data/climate.csv", "data/prices.csv"):
        path = tmp_path / "exported" / path
        path.write_bytes(b"\xef\xbb\xbf"
                         + path.read_bytes().replace(b"\n", b"\r\n"))
    got = []
    for name in ("plain", "exported"):
        monkeypatch.chdir(tmp_path / name)
        assert main(["ardl", "--config", "run.ini"]) == 0
        assert main(["stats", "--config", "run.ini"]) == 0
        got.append({p.name: p.read_bytes() for p in Path("out").iterdir()})
    assert got[0] == got[1]


def _pipeline_outputs(climate, prices):
    """{file name: bytes} of anomaly, lp, ardl and stats on the two texts."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _project(Path(tmp), climate, prices)
        for cmd in ("anomaly", "lp", "ardl", "stats"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        return {p.name: p.read_bytes() for p in (Path(tmp) / "out").iterdir()}


def _split(text):
    """(comment and header lines, data rows) of a panel CSV."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    return lines[:head + 1], lines[head + 1:]


def _repeat_some(rows, rnd):
    """rows with a few of them repeated later in the file."""
    rows = list(rows)
    for _ in range(rnd.randint(1, 4)):
        i = rnd.randrange(len(rows))
        rows.insert(rnd.randint(i + 1, len(rows)), rows[i])
    return rows


@pytest.fixture(scope="module")
def ordered_outputs(workspace):
    texts = [(workspace["data"] / name).read_text(encoding="utf-8")
             for name in ("climate.csv", "prices.csv")]
    return texts, _pipeline_outputs(*texts)


# no shrink phase: a smaller shuffle would say no more, and shrinking one
# that fails reruns the pipeline for minutes
@settings(max_examples=10, deadline=None, derandomize=True,
          phases=(Phase.generate,))
@given(rnd=st.randoms(use_true_random=False))
def test_row_order_and_repeated_rows_change_no_output(ordered_outputs, rnd):
    # the rows of both files in any order, the regions first appearing in
    # any order too: the panel's regions are in name order
    (climate, prices), want = ordered_outputs
    head, rows = _split(climate)
    climate = "".join(head + _repeat_some(rnd.sample(rows, len(rows)), rnd))
    head, rows = _split(prices)
    prices = "".join(head + _repeat_some(rnd.sample(rows, len(rows)), rnd))
    got = _pipeline_outputs(climate, prices)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []



# Tokens a mutated config value or a damaged input cell takes: nothing,
# out-of-range and malformed numbers, placeholders, labels, key names
_TOKENS = ("", "-1", "0", "1", "2", "9", "-2", "0-2", "-1-3", "2,0", "1.5",
           "nan", "inf", "x", "true", "{m}", "{q}", "1962Q5", "1990Q3",
           "2040Q1", "region", "year", "quarter", "food", "temperature",
           "a,b", "\"", "[lp]", "%(x)s", "é")
_INSERTS = (b"\xff", b"\x00", b"\r", b"\n", b",,")
_PREFIXES = {1: ("config error: ", "error: "), 2: ("data error: ",),
             3: ("estimation error: ",)}


def _insert(raw, draw):
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from(_INSERTS)) + raw[at:]


def _mutate_config(text, draw):
    """config bytes with one line's value replaced, the line dropped or
    repeated, an unknown key added, or a stray byte inserted."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["value", "drop", "repeat", "key", "byte"]))
    if how == "value" and "=" in lines[i]:
        lines[i] = lines[i].split("=", 1)[0] + "= " + draw(
            st.sampled_from(_TOKENS))
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif how == "key":
        lines.insert(i, draw(st.sampled_from(_TOKENS)) + " = 1")
    raw = ("\n".join(lines) + "\n").encode()
    return _insert(raw, draw) if how == "byte" else raw


def _damage_input(raw, draw):
    """panel CSV bytes cut short, emptied, with one cell replaced, a stray
    byte inserted or the year column renamed."""
    how = draw(st.sampled_from(["cut", "empty", "cell", "byte", "header"]))
    if how == "cut":
        return raw[:draw(st.integers(0, len(raw)))]
    if how == "empty":
        return b""
    if how == "byte":
        return _insert(raw, draw)
    if how == "header":
        return raw.replace(b",year,", b"," + draw(st.sampled_from(
            [b"region", b"quarter", b"", b"Year"])) + b",", 1)
    rows = raw.split(b"\n")
    r = draw(st.integers(0, len(rows) - 1))
    cells = rows[r].split(b",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(
        st.sampled_from(_TOKENS)).encode()
    rows[r] = b",".join(cells)
    return b"\n".join(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_failure_is_one_typed_line(workspace, data):
    # a mutated config or one damaged input: the command succeeds, or
    # prints one typed error line (never a traceback) and exits 1, 2 or 3
    command = data.draw(st.sampled_from(["anomaly", "lp", "ardl", "stats"]))
    inputs = {name: (workspace["data"] / name).read_bytes()
              for name in ("climate.csv", "prices.csv")}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = BASE_CONFIG.format(data=root, out=root / "out")
        if data.draw(st.booleans()):
            config = _mutate_config(config, data.draw)
        else:
            config = config.encode()
            name = data.draw(st.sampled_from(sorted(inputs)))
            inputs[name] = _damage_input(inputs[name], data.draw)
        for name, raw in {**inputs, "run.ini": config}.items():
            (root / name).write_bytes(raw)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(root / "run.ini")])
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(_PREFIXES[code]), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, reason", [
    ("stats", "No space left on device"), ("anomaly", "File too large")],
    ids=["stats", "anomaly"])
def test_every_failed_write_is_one_typed_line(workspace, tmp_path, command,
                                              reason):
    # the OS refuses a write: stats's file is a link to /dev/full, anomaly
    # runs under a 3,000-byte file size limit set in the child alone
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    out.mkdir()
    if command == "stats":
        (out / "summary_stats.csv").symlink_to("/dev/full")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(climpanel.__file__).resolve().parents[1]),
                   os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "climpanel", command,
         "--config", str(workspace["config"]), "--out", str(out)],
        env=env, capture_output=True, text=True,
        preexec_fn=None if command == "stats" else lambda: resource.setrlimit(
            resource.RLIMIT_FSIZE, (3000, 3000)))
    assert run.returncode == 1
    assert run.stderr == f"error: {out}: cannot write: {reason}\n"
