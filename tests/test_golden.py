"""Golden outputs: the README demo pipeline must reproduce its files byte
for byte, and fixed configs must keep their resolved-config hashes.

A change that alters numbers on purpose refreshes the stored hashes with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from climpanel.cli import load_config, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_sha256.json"

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


def demo_hashes(root: Path) -> dict[str, str]:
    """Run the demo pipeline in root; sha256 of every file it writes."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("run.ini").write_text(DEMO_CONFIG, encoding="utf-8")
        for argv in DEMO_COMMANDS:
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((root / "data").iterdir())
        + sorted((root / "out").iterdir())
    }


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


# Runs the demo pipeline in a fresh interpreter in which every scipy import
# fails, then prints the output hashes, the scipy modules loaded and what
# confidence_band(use_t=True) raised.
WITHOUT_SCIPY = """
import importlib.abc, json, sys
from pathlib import Path

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockScipy())
import numpy as np
from climpanel import QuarterIndex, confidence_band, ols, quarter_range
from climpanel.regress import design_from_matrices
from test_golden import demo_hashes

hashes = demo_hashes(Path(sys.argv[1]))
rng = np.random.default_rng(0)
time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2004, 4))
fit = ols(design_from_matrices(rng.normal(size=(1, 20)),
                               [("x", rng.normal(size=(1, 20)))],
                               ["a"], time))
try:
    confidence_band(fit, 0.9, use_t=True)
    use_t = None
except Exception as exc:
    use_t = type(exc).__name__
print(json.dumps({"hashes": hashes, "use_t": use_t,
                  "scipy": sorted(m for m in sys.modules
                                  if m.partition(".")[0] == "scipy")}))
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
    assert got["use_t"] == "SpecError"
    assert got["hashes"] == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_resolved_config_hashes_are_pinned(tmp_path):
    assert config_hashes(tmp_path) == CONFIG_HASHES


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = demo_hashes(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
