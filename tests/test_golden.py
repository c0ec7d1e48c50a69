"""Golden outputs: the README demo pipeline and a small ragged pipeline
must reproduce their files byte for byte, and fixed configs must keep
their resolved-config hashes.

A change that alters numbers on purpose refreshes the stored hashes with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from climpanel.cli import main
from climpanel.config import load_config
from climpanel.dataset import PanelDataset, write_panel
from climpanel.simulate import PRICE_COMPONENTS, climate_panel

GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_sha256.json"
RAGGED_GOLDEN = GOLDEN.with_name("ragged_sha256.json")

# The Quickstart config of README.md. Input paths are relative, because the
# resolved-config hash (written into every output) includes them.
DEMO_CONFIG = """\
[input]
climate = data/climate.csv
prices = data/prices.csv

[anomaly]
m = 20,30,40

[lp]
outcomes = all_items,food,non_food,services,agriculture,energy
m = 30

[ardl]
outcomes = all_items,food,non_food,services,agriculture,energy
m = 20,30,40

[output]
dir = out

[simulate]
kind = climate
seed = 20240101
regions = 7
quarters = 252
start = 1962Q1
"""

DEMO_COMMANDS = (
    ["simulate", "--config", "run.ini", "--out", "data"],
    ["anomaly", "--config", "run.ini"],
    ["lp", "--config", "run.ini"],
    ["ardl", "--config", "run.ini"],
    ["stats", "--config", "run.ini"],
)

# Every key of every section, each off its default.
EVERY_KEY_CONFIG = """\
[input]
climate = in/climate.csv
prices = in/prices.csv
region_col = reg
year_col = yr
quarter_col = qtr
missing = NA
temperature_var = temp
precipitation_var = rain
start = 1990Q1
end = 2010Q4

[anomaly]
m = 10, 25
mode = rolling
seasonal = false
sign_conditioned = no

[lp]
outcomes = food, energy
shocks = temp_anom_m{m}_pos,rain_anom_m{m}
m = 25
horizons = 1-4
lags = 3
level = 0.95
bandwidth = 5
small_sample = false
fixed_effects = region

[ardl]
outcomes = food
m = 10,25
p = 2
se = driscoll-kraay
bandwidth = 3
small_sample = 0

[simulate]
kind = lp
seed = 11
regions = 5
quarters = 120
start = 1980Q2

[stats]
variables = food,temp

[output]
dir = elsewhere
"""

CONFIG_HASHES = {
    "defaults": "2661ed9b3059e6a1",
    "every_key": "4b0bfde9b77df4d9",
    "every_key --m 9,11 --seed 3": "de81e5a9bea27fbc",
}


def _run_in(root: Path, configs: dict, commands, run=main) -> None:
    """Write each named config text in root, then run each command there by
    run(argv) -> exit code, which must be 0."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, text in configs.items():
            Path(name).write_text(text, encoding="utf-8")
        for argv in commands:
            assert run(argv) == 0, argv
    finally:
        os.chdir(cwd)


def _hashes(root: Path, dirs) -> dict[str, str]:
    """sha256 of every file in root's dirs, by its path from root."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for name in dirs for path in sorted((root / name).iterdir())}


def demo_hashes(root: Path, run=main) -> dict[str, str]:
    """Run the demo pipeline in root, each command by run(argv) -> exit
    code; sha256 of every file it writes."""
    _run_in(root, {"run.ini": DEMO_CONFIG}, DEMO_COMMANDS, run)
    return _hashes(root, ("data", "out"))


def config_hashes(root: Path) -> dict[str, str]:
    path = root / "every_key.ini"
    path.write_text(EVERY_KEY_CONFIG, encoding="utf-8")
    return {
        "defaults": load_config(None).hash,
        "every_key": load_config(str(path)).hash,
        "every_key --m 9,11 --seed 3":
            load_config(str(path), m_list="9,11", seed=3).hash,
    }


def test_demo_pipeline_outputs_match_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = demo_hashes(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the golden run: {changed}"


def test_demo_pipeline_through_the_entry_point(tmp_path):
    # `python -m climpanel` children, OpenBLAS on the entry point's one
    # thread; the in-process test above runs on the environment's setting
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)

    def run(argv):
        return subprocess.run([sys.executable, "-m", "climpanel", *argv],
                              env=env, capture_output=True).returncode

    got = demo_hashes(tmp_path, run)
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


# Runs the demo pipeline in a fresh interpreter in which every scipy and
# click import fails, then prints the output hashes and the scipy and click
# modules loaded.
WITHOUT_SCIPY = """
import importlib.abc, json, sys
from pathlib import Path

BLOCKED = ("scipy", "click")

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Block())
from test_golden import demo_hashes

hashes = demo_hashes(Path(sys.argv[1]))
print(json.dumps({"hashes": hashes, **{
    top: sorted(m for m in sys.modules if m.partition(".")[0] == top)
    for top in BLOCKED}}))
"""


def test_demo_pipeline_runs_without_scipy(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)], env=env,
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["scipy"] == []
    assert got["click"] == []
    assert got["hashes"] == json.loads(GOLDEN.read_text(encoding="utf-8"))


# The paths of a ragged panel that the demo's balanced one does not take:
# regions whose prices start late, blank price and climate cells, files
# that list the regions in different orders, none of them in name order,
# singleton groups in the two-way absorption and Driscoll-Kraay ARDL cells.
# The short window of window.ini leaves more singletons.
RAGGED_CONFIG = """\
[input]
climate = data/climate.csv
prices = data/prices.csv
{window}
[anomaly]
m = 2,3

[lp]
outcomes = food,energy
m = 2
lags = 2

[ardl]
outcomes = food,energy
m = 2,3
p = 1
se = driscoll-kraay
"""

RAGGED_COMMANDS = (
    ["anomaly", "--config", "run.ini"],
    ["lp", "--config", "run.ini"],
    ["ardl", "--config", "run.ini"],
    ["stats", "--config", "run.ini"],
    ["lp", "--config", "window.ini", "--out", "window"],
    ["ardl", "--config", "window.ini", "--out", "window"],
)


def _ragged_inputs(data: Path) -> None:
    """climate_panel's series on 6 regions x 48 quarters, with seeded holes:
    each region's prices start at a drawn quarter in the first third (blank
    before it), and 5% of the other price cells and 1% of the climate cells
    are blank. The climate file lists the regions in reverse order."""
    ds = climate_panel(n_regions=6, n_quarters=48, start="1995Q1", seed=43)
    rng = np.random.default_rng(43)
    R, T = ds.n_regions, ds.n_quarters
    late = np.arange(T) < rng.integers(0, T // 3, R)[:, None]
    prices = {name: np.where(late | (rng.random((R, T)) < 0.05), np.nan,
                             ds.values(name)) for name in PRICE_COMPONENTS}
    back = slice(None, None, -1)
    climate = {name: np.where(rng.random((R, T)) < 0.01, np.nan,
                              ds.values(name))[back]
               for name in ("temperature", "precipitation")}
    data.mkdir()
    write_panel(PanelDataset(ds.regions, ds.time, prices, ds.units),
                data / "prices.csv")
    write_panel(PanelDataset(ds.regions[back], ds.time, climate, ds.units),
                data / "climate.csv")


def ragged_hashes(root: Path) -> dict[str, str]:
    """Write the ragged inputs in root and run the ragged pipeline there;
    sha256 of every input and output file."""
    _ragged_inputs(root / "data")
    _run_in(root, {"run.ini": RAGGED_CONFIG.format(window=""),
                   "window.ini": RAGGED_CONFIG.format(
                       window="start = 2000Q1\nend = 2001Q2\n")},
            RAGGED_COMMANDS)
    return _hashes(root, ("data", "out", "window"))


def test_ragged_pipeline_outputs_match_golden_hashes(tmp_path):
    expected = json.loads(RAGGED_GOLDEN.read_text(encoding="utf-8"))
    got = ragged_hashes(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the golden run: {changed}"


def test_source_imports_no_scipy():
    # every import statement in the package, at any depth, so that an
    # import inside a function, which the run above may never reach, counts;
    # nor dataclasses, whose per-class exec every cold command would pay
    src = Path(__file__).resolve().parents[1] / "src" / "climpanel"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in tops
                      if name.partition(".")[0] in ("scipy", "dataclasses")]
    assert found == []


def test_value_rules_are_spelled_only_in_specs():
    # a repeat, a count's bound, a choice and a list's kind each have one
    # checker in specs.py; a message of one spelled out in any other module,
    # in a raise or handed to one, is a second copy of its rule. Docstrings
    # are statements of their own and are not messages.
    src = Path(__file__).resolve().parents[1] / "src" / "climpanel"
    rules = (" twice", "must be >= ", "must be one of",
             "must be a tuple or list")
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "specs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = {id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Expr)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and id(node) not in docs
                  and isinstance(node.value, str)
                  and any(rule in node.value for rule in rules)]
    assert found == []


def test_resolved_config_hashes_are_pinned(tmp_path):
    assert config_hashes(tmp_path) == CONFIG_HASHES


# A small panel on which one [lp] shock and one [ardl] outcome do not
# exist and the LP horizon 40 is too long for its bandwidth: the demo run
# has no failure, so these pin the bytes of the failure bookkeeping and of
# the combined IRF table's (shock, outcome, horizon) order.
PARTIAL_FAILURE_CONFIG = """\
[input]
climate = data/climate.csv
prices = data/prices.csv

[anomaly]
m = 2,3

[lp]
outcomes = food,all_items
shocks = temperature_spring_hot_m{m},nope_m{m},precipitation_anom_m{m}_pos
m = 2
horizons = 0,1,2,40
lags = 2

[ardl]
outcomes = food,nope,all_items
m = 3,2
p = 1

[simulate]
kind = climate
seed = 77
regions = 4
quarters = 64
start = 1990Q1
"""

PARTIAL_FAILURE_HASHES = {
    "irf_table.csv":
        "5a286ce30f300c27d029cd0a8ecea142843f0205d636a50e148d5d110ca0d4f8",
    "run_report_lp.txt":
        "4aeb0e43f3f1ddbcd5bb9faa1635023c7b32b53064011495e23e9ee387ff2c7e",
    "run_report_ardl.txt":
        "4a6b092602e2487a8e2796c40aba38ff139decfa671f2b44cbcede3bc73902eb",
}


def test_partial_failure_bookkeeping_matches_pinned_hashes(tmp_path):
    _run_in(tmp_path, {"run.ini": PARTIAL_FAILURE_CONFIG},
            (["simulate", "--config", "run.ini", "--out", "data"],
             ["lp", "--config", "run.ini"],
             ["ardl", "--config", "run.ini"]))
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
            .hexdigest() for name in PARTIAL_FAILURE_HASHES} \
        == PARTIAL_FAILURE_HASHES


if __name__ == "__main__":
    import tempfile

    for path, make in ((GOLDEN, demo_hashes), (RAGGED_GOLDEN, ragged_hashes)):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = make(Path(tmp))
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(hashes)} hashes to {path}", file=sys.stderr)
