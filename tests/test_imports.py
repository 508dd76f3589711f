"""Import footprint: `import neelwall` loads numpy and scipy.linalg only.

scipy.spatial (with the scipy.special it pulls in) and scipy.sparse add
about 11 MB to every process; ARPACK is imported where it is called, and
the eigen-report of a moving block does not call it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import neelwall

SRC = str(Path(neelwall.__file__).resolve().parents[1])

PROBE = """
import json, resource, sys
{imports}
print(json.dumps({{
    "modules": sorted(m for m in sys.modules if m.startswith("scipy.")),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def _fresh(imports: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


def test_import_loads_no_spatial_special_or_sparse():
    got = _fresh("import neelwall")
    loaded = {m.split(".")[1] for m in got["modules"]}
    assert not loaded & {"spatial", "special", "sparse"}, got["modules"]
    floor = _fresh("import numpy, scipy.linalg")
    assert got["peak_rss_mb"] <= floor["peak_rss_mb"] + 5.0


def test_moving_eig_report_loads_no_sparse():
    got = _fresh("""
from neelwall.grid import Grid
from neelwall.linops import build_block
from neelwall.profiles import solve_static, solve_traveling
from neelwall.spectra import eig_report
g = Grid(L=40.0, n=256)
wall = solve_traveling(g, 1e-3, 1.0, tol=5e-8,
                       init=solve_static(g, tol=5e-8))
assert eig_report(build_block(wall)).meta["solver"] == "hamiltonian"
""")
    assert not any(m.startswith("scipy.sparse") for m in got["modules"]), (
        got["modules"])
