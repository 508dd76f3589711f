"""Profile persistence and tabular report writers.

Oracles: byte-exact round trips (the payload is raw little-endian float64),
and csv/json-lines output re-parses to the values written.
"""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from neelwall.grid import Grid
from neelwall.profiles import solve_static
from neelwall.reports import MAGIC, load_profile, store_profile, write_report
from neelwall.spectra import ResolventSample, SpectrumReport


def test_profile_round_trip_bit_exact(tmp_path, static256):
    path = tmp_path / "wall.prof"
    store_profile(static256, path)
    back = load_profile(path)
    assert np.array_equal(back.theta.values, static256.theta.values)
    assert back.grid == static256.grid
    assert back.H == static256.H
    assert back.c == static256.c
    assert back.nu == static256.nu
    assert back.meta["mode"] == "nonlocal"
    # residual is recomputed on load and matches the solver's
    assert back.residual == pytest.approx(static256.residual, rel=1e-6, abs=1e-12)


def test_local_profile_round_trip_keeps_mode(tmp_path, grid256):
    # the reloaded residual is the solve's, in the mode the wall was solved
    # in; read with the nonlocal gradient it would be ~0.39
    prof = solve_static(grid256, tol=1e-8, mode="local")
    path = tmp_path / "wall.prof"
    store_profile(prof, path)
    assert b" mode=local\n" in path.read_bytes()
    back = load_profile(path)
    assert back.meta["mode"] == "local"
    assert back.residual == pytest.approx(prof.residual, rel=1e-6, abs=1e-12)


def test_profile_without_mode_reads_as_nonlocal(tmp_path, static256):
    path = tmp_path / "old.prof"
    store_profile(static256, path)
    path.write_bytes(path.read_bytes().replace(b" mode=nonlocal", b"", 1))
    back = load_profile(path)
    assert back.meta["mode"] == "nonlocal"
    assert np.array_equal(back.theta.values, static256.theta.values)
    assert back.residual == pytest.approx(static256.residual, rel=1e-6,
                                          abs=1e-12)


def test_load_rejects_bad_mode(tmp_path, static256, traveling256):
    for prof, old, new in ((static256, b"mode=nonlocal", b"mode=magnetic"),
                           (traveling256, b"mode=nonlocal", b"mode=local")):
        path = tmp_path / "bad_mode.prof"
        store_profile(prof, path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        with pytest.raises(ValueError, match="mode"):
            load_profile(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.prof"
    path.write_bytes(b"NOPE\nL=40 n=4 H=0 c=0 nu=1 background=wall\n\n" + b"\0" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        load_profile(path)


def test_load_rejects_truncated_payload(tmp_path, static256):
    path = tmp_path / "trunc.prof"
    store_profile(static256, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_profile(path)


def test_load_rejects_missing_header_fields(tmp_path):
    path = tmp_path / "nofields.prof"
    path.write_bytes(f"{MAGIC}\nL=40 n=4\n\n".encode() + b"\0" * 32)
    with pytest.raises(ValueError, match="malformed header"):
        load_profile(path)


def test_load_rejects_headerless_file(tmp_path):
    path = tmp_path / "raw.bin"
    path.write_bytes(b"\0" * 64)
    with pytest.raises(ValueError, match="malformed header"):
        load_profile(path)


def test_write_report_csv_spectrum(tmp_path):
    rep = SpectrumReport(np.array([0.0 + 0j, -0.5 + 1.25j]), 0.0, 0.5, None,
                         1, "A", {})
    path = tmp_path / "spec.csv"
    write_report(rep, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["re"]) == -0.5
    assert float(rows[1]["im"]) == 1.25


def test_write_report_jsonl_resolvent(tmp_path):
    samples = [ResolventSample(1.0 + 2.0j, 3.5, 7.25, "G2"),
               ResolventSample(0.5 - 0.5j, 1.0, 1.5, "Gamma")]
    path = tmp_path / "res.jsonl"
    write_report(samples, "json-lines", path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["re_lambda"] == 1.0
    assert lines[0]["norm_composed"] == 7.25
    assert lines[1]["region"] == "Gamma"
    assert lines[1]["im_lambda"] == -0.5
    assert lines[1]["norm_composed"] == 1.5


def test_write_report_csv_round_trips_floats(tmp_path):
    x = 0.1 + 0.2            # not exactly representable in short decimal
    path = tmp_path / "row.csv"
    write_report([{"x": x, "flag": True}], "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["x"]) == x
    assert rows[0]["flag"] == "true"


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report([{"x": 1.0}], "xml", tmp_path / "r.xml")


def test_write_report_rejects_unserializable(tmp_path):
    with pytest.raises(TypeError):
        write_report(object(), "csv", tmp_path / "r.csv")
    # a list of anything but dicts or resolvent samples, before any write
    for fmt in ("csv", "json-lines"):
        with pytest.raises(TypeError, match="float"):
            write_report([0.5, 1.5], fmt, tmp_path / "r.out")
        with pytest.raises(TypeError, match="dict, float"):
            write_report([{"x": 1.0}, 2.0], fmt, tmp_path / "r.out")
    assert not (tmp_path / "r.out").exists()
