"""End-to-end CLI runs: simulate -> anomaly -> lp -> ardl -> stats."""
import configparser
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import climpanel
from climpanel import (
    HACSpec,
    LPSpec,
    PanelSchema,
    build_lp_design,
    default_bandwidth,
    load_panel,
    ols,
    with_driscoll_kraay,
)
from climpanel.cli import _attach_all, _load_merged, load_config, main


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


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[nonsense]\nx = 1\n", encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 1


def test_lp_all_cells_failing_exit_3(workspace, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        BASE_CONFIG.format(data=workspace["data"], out=tmp_path / "o")
        .replace("outcomes = all_items,food\nm = 2", "outcomes = missing\nm = 2"),
        encoding="utf-8")
    assert main(["lp", "--config", str(cfg)]) == 3


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


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(climpanel.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, climpanel.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    ds = _attach_all(run, _load_merged(run), [run.lp.m], seasonal=True)
    name = "irf_temperature_spring_hot_m2__food.csv"
    rows = [l.split(",") for l in _read_lines(tmp_path / "o" / name)
            if not l.startswith("#")][1:]
    default = [l.split(",") for l in _read_lines(tmp_path / "default" / name)
               if not l.startswith("#")][1:]
    spec = LPSpec("food", "temperature_spring_hot_m2", lags=2)
    for row, base in zip(rows, default):
        h = int(row[0])
        design = build_lp_design(ds, spec, h)
        bandwidth = max(default_bandwidth(len(np.unique(design.time_codes))), h)
        fit = with_driscoll_kraay(ols(design), HACSpec(bandwidth, False))
        assert row[1] == base[1]
        assert float(row[2]) == pytest.approx(fit.se_for(spec.shock),
                                              rel=1e-12)
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


def test_cli_import_loads_no_scipy():
    src = str(Path(climpanel.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, climpanel.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_patches_current_modules():
    # the benchmark's --trace 1 wraps layer functions by attribute name;
    # a rename in the program must fail here, not only in the benchmark
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root))
    try:
        from climbench.tracing import Tracer, install
    finally:
        sys.path.remove(str(root))
    from climpanel import cli, localproj, regress
    before = {(m.__name__, a): getattr(m, a) for m, a in (
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
    ("lp", "lp.lags=-1"),
    ("lp", "lp.bandwidth=-2"),
    ("lp", "lp.shocks="),
    ("lp", "lp.fixed_effects=region,region"),
    ("simulate", "simulate.regions=0"),
    ("simulate", "simulate.quarters=0"),
    ("simulate", "simulate.start=1962Q5"),
    ("simulate", "simulate.seed=-1"),
])
def test_config_value_out_of_range_exit_1(workspace, tmp_path, capsys,
                                          command, setting):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG.format(data=workspace["data"],
                                          out=tmp_path / "o"))
    target, value = setting.split("=", 1)
    args = []
    if target.startswith("--"):
        args = [target, value]
    else:
        section, key = target.split(".")
        parser[section][key] = value
    cfg = tmp_path / "cfg.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main([command, "--config", str(cfg), *args]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


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


def test_out_naming_an_existing_file_exit_1(workspace, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    code = main(["stats", "--config", str(workspace["config"]),
                 "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
