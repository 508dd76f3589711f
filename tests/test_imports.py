"""Import footprint: `import neelwall` loads numpy and scipy.linalg only.

scipy.spatial (with the scipy.special it pulls in) and scipy.sparse add
about 11 MB to every process.  No module under src/neelwall imports
scipy.sparse, at module level or inside a function: zero modes come from
inverse iteration through an LU and the numerical abscissa from the modal
factor, so neither the eigen-reports, the null pair, the translation mode
nor a resolvent sweep loads it.
"""
from __future__ import annotations

import ast
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


def _imported_modules(path: Path):
    """Every module an import statement anywhere in the file names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_src_never_imports_sparse():
    files = sorted(Path(SRC, "neelwall").glob("*.py"))
    assert files
    found = [(f.name, m) for f in files for m in _imported_modules(f)
             if m.startswith("scipy.sparse")]
    assert not found, found


def test_zero_modes_and_sweep_load_no_sparse():
    got = _fresh("""
from neelwall.grid import Grid
from neelwall.linops import build_L, build_block, null_pair, translation_mode
from neelwall.profiles import solve_static, solve_traveling
from neelwall.spectra import resolvent_sweep
g = Grid(L=40.0, n=256)
static = solve_static(g, tol=5e-8)
translation_mode(build_L(static))
null_pair(build_block(solve_traveling(g, 1e-3, 1.0, tol=5e-8, init=static)))
resolvent_sweep(build_block(static, with_c=False), 0.2, n_radial=4,
                n_angular=4, n_gamma=8)
""")
    assert not any(m.startswith("scipy.sparse") for m in got["modules"]), (
        got["modules"])
