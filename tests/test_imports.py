"""Import footprint: `import neelwall` loads numpy and scipy.linalg only.

scipy.spatial (with the scipy.special it pulls in) and scipy.sparse add
about 11 MB to every process; ARPACK is imported where it is called.
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
