"""Persistence: profile files and CSV / JSON-lines reports.

Profile format: an ASCII header (magic line ``NEELW1``, one metadata line,
blank line) followed by n little-endian float64 remainder samples.  The
header is human-inspectable; the payload round-trips bit-exactly.  The
metadata line records the stray-field ``mode`` the wall was solved in; a
file without it reads as nonlocal.
"""
from __future__ import annotations

import io
import json
import os

import numpy as np

from .energy import MODES, grad_energy
from .grid import Field, Grid, l2_norm
from .profiles import Profile, traveling_residual
from .spectra import ResolventSample, SpectrumReport, SweepResult
from .dynamics import SimTrace

MAGIC = "NEELW1"

__all__ = ["MAGIC", "store_profile", "load_profile", "write_report"]


def _fmt(x: float) -> str:
    """Round-trippable float formatting (17 significant digits)."""
    return format(float(x), ".17g")


def store_profile(profile: Profile, path) -> None:
    """Write a profile: text header, blank line, n little-endian f64 samples."""
    header = (
        f"{MAGIC}\n"
        f"L={_fmt(profile.grid.L)} n={profile.grid.n} H={_fmt(profile.H)} "
        f"c={_fmt(profile.c)} nu={_fmt(profile.nu)} "
        f"background={profile.theta.background} "
        f"mode={profile.meta.get('mode', 'nonlocal')}\n\n"
    )
    payload = np.ascontiguousarray(profile.theta.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _parse_header(raw: bytes, path) -> tuple[dict, int]:
    end = raw.find(b"\n\n")
    if end < 0:
        raise ValueError(f"{path}: malformed header (no blank line)")
    lines = raw[:end].decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != MAGIC:
        found = lines[0] if lines else "<empty>"
        raise ValueError(
            f"{path}: bad magic: found {found!r}, expected {MAGIC!r}")
    meta = {}
    for token in lines[1].split():
        key, _, val = token.partition("=")
        meta[key] = val
    return meta, end + 2


def load_profile(path) -> Profile:
    """Read a profile file on the grid it was stored on."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header, offset = _parse_header(raw, path)
    try:
        L = float(header["L"])
        n = int(header["n"])
        H = float(header["H"])
        c = float(header["c"])
        nu = float(header["nu"])
        background = header["background"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header fields: {exc}") from exc
    mode = header.get("mode", "nonlocal")
    if mode not in MODES or (mode == "local" and (c or H)):
        raise ValueError(f"{path}: mode {mode!r} at c = {c}, H = {H}: expected "
                         f"nonlocal, or local at c = H = 0")
    payload = raw[offset:]
    if len(payload) != 8 * n:
        raise ValueError(
            f"{path}: truncated payload: {len(payload)} bytes, "
            f"expected {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    grid = Grid(L, n)
    theta = Field(grid, values, background)
    # at c = H = 0 the traveling residual is the energy gradient
    R = (traveling_residual(grid, theta, c, nu, H) if mode == "nonlocal"
         else grad_energy(theta, mode).values)
    res = float(l2_norm(grid, R))
    return Profile(theta, H, c, nu, res,
                   {"source_path": os.fspath(path), "mode": mode})


# ---------------------------------------------------------------------------
# tabular reports


def _cell(value):
    """One value -> list of (suffix, text) columns; complex splits in two."""
    if isinstance(value, (complex, np.complexfloating)):
        return [("_re", _fmt(value.real)), ("_im", _fmt(value.imag))]
    if isinstance(value, (bool, np.bool_)):
        return [("", "true" if value else "false")]
    if isinstance(value, (float, np.floating)):
        return [("", _fmt(value))]
    if isinstance(value, (int, np.integer)):
        return [("", str(int(value)))]
    return [("", str(value))]


def _rows_of(record) -> list[dict]:
    """The rows of a report: one per eigenvalue of a SpectrumReport, per
    sample of a SweepResult or list of ResolventSamples, per frame of a
    SimTrace, per dict of a list of dicts, or the one row of a dict."""
    if isinstance(record, SpectrumReport):
        return [
            {"index": i, "re": lam.real, "im": lam.imag}
            for i, lam in enumerate(record.eigenvalues)
        ]
    if isinstance(record, SweepResult):
        record = record.samples
    if isinstance(record, SimTrace):
        return [
            {"t": record.times[i],
             "residual_H1": record.residual_H1[i],
             "wall_position": record.wall_position[i],
             "s": record.s[i],
             "energy": record.energy[i],
             "v_norm": record.v_norm[i],
             "defect": record.defect[i]}
            for i in range(len(record.times))
        ]
    if isinstance(record, (list, tuple)):
        if record and all(isinstance(s, ResolventSample) for s in record):
            return [
                {"re_lambda": s.lam.real, "im_lambda": s.lam.imag,
                 "norm_inv": s.norm_inv, "norm_composed": s.norm_composed,
                 "region": s.region}
                for s in record
            ]
        if all(isinstance(r, dict) for r in record):
            return list(record)
        kinds = ", ".join(sorted({type(r).__name__ for r in record}))
        raise TypeError(f"cannot serialize a report list of {kinds}")
    if isinstance(record, dict):
        return [record]
    raise TypeError(f"cannot serialize report of type {type(record).__name__}")


def _json_value(value):
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return str(value)


def write_report(record, fmt: str, path) -> None:
    """Serialize a report record (or list of records) to csv or json-lines.

    CSV carries a header row; complex values become re,im column pairs; all
    floats are written with 17 significant digits.
    """
    if fmt not in ("csv", "json-lines"):
        raise ValueError(f"format must be 'csv' or 'json-lines', got {fmt!r}")
    rows = _rows_of(record)
    buf = io.StringIO()
    if fmt == "csv":
        if rows:
            header = []
            for key, value in rows[0].items():
                for suffix, _ in _cell(value):
                    header.append(f"{key}{suffix}")
            buf.write(",".join(header) + "\n")
            for row in rows:
                cells = [text for value in row.values()
                         for _, text in _cell(value)]
                buf.write(",".join(cells) + "\n")
    else:
        for row in rows:
            payload = {k: _json_value(v) for k, v in row.items()}
            buf.write(json.dumps(payload, sort_keys=True) + "\n")
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
