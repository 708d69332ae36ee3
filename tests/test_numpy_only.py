"""The package runs on a numpy-only install (networkx is optional).

``pyproject.toml`` declares numpy as the only runtime dependency, so
``import repro`` and every engine path that does not ask for a
networkx-backed family (lattices, explicit nx graphs, stable flooding)
must work without networkx.  A fresh interpreter blocks the import with
a ``sys.meta_path`` finder and drives those paths.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"

SCRIPT = r"""
import json
import sys


class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None


sys.meta_path.insert(0, BlockNetworkx())

import repro
from repro import PopulationConfig, SourceCounts
from repro.engines import create_engine
from repro.topology import ChurnTopology
from repro.verify.golden import compare_goldens

config = PopulationConfig(n=64, sources=SourceCounts(1, 4), h=4)
fast = {
    str(topology): create_engine("fast", "sf", config, 0.2, topology=topology)
    .run(seed=3).rounds
    for topology in (None, "regular")
}
churn = ChurnTopology(degree=4, churn_rate=0.2)
serial = create_engine("serial", "sf", config, 0.2, topology=churn).run(seed=5)
print(json.dumps({
    "fast_rounds": fast,
    "serial_rounds": serial.rounds,
    "churn_min_degree": int(churn.degrees().min()),
    "golden_mismatches": compare_goldens(sys.argv[1]),
    "networkx_loaded": any(name.startswith("networkx") for name in sys.modules),
}))
"""


def test_engines_run_without_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(GOLDENS)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert all(rounds > 0 for rounds in result["fast_rounds"].values())
    assert result["serial_rounds"] > 0
    assert result["churn_min_degree"] >= 1
    # Every golden, fast_sf_regular included, is reproduced bit for bit.
    assert result["golden_mismatches"] == []
    assert not result["networkx_loaded"]
