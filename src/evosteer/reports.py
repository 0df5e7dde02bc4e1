"""Emission of run artifacts: trajectory/control CSV files and the JSON
report.  All numbers are written at full precision (%.17g) so re-ingesting a
file reproduces the run's norms exactly and identical runs emit identical
bytes.  A CSV file is written in chunks of rows holding at most
``CHUNK_VALUES`` values, each chunk formatted by a single ``%`` into the
bytes ``csv.writer`` would write (no field ever needs quoting; rows end in
CRLF), so emission memory stays bounded when the grid is refined.  Each
state and control value is formatted once: ``emit_control`` returns the
formatted control fields, and ``emit_trajectory`` splices them into its
control-window rows; zero control fields are one constant string."""

from __future__ import annotations

import csv
import json
import mmap
import os
from typing import Optional

import numpy as np

from .core import PiecewiseTrajectory

CHUNK_VALUES = 1 << 14


def _chunks(rows: int, width: int) -> list:
    """(lo, hi) row ranges of at most CHUNK_VALUES values, ``width`` values
    per row (at least one row each)."""
    step = max(1, CHUNK_VALUES // width)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _fields(count: int) -> str:
    return ",".join(["%.17g"] * count)


def _format_control(control) -> list:
    """Per control window, the ``u0,...`` text of every sample in one
    anonymous memory map, and the row offsets into it: sample i's text is
    ``buf[off[i]:off[i + 1] - 1]`` (each sample ends in a newline).  The map
    lives outside the malloc heap, so holding the fields leaves no
    fragmented heap behind; held as heap strings, they left it untrimmed
    after some runs, and the next allocations then raised the peak RSS by
    up to 15 MiB.  A map is unmapped when the returned fields are dropped."""
    mu = control.samples[0].shape[1]
    out = []
    for U in control.samples:
        # a %.17g field has at most 24 characters, plus its separator
        buf = mmap.mmap(-1, U.size * 25)
        ends = [np.zeros(1, dtype=np.int64)]
        for lo, hi in _chunks(len(U), mu):
            fmt = (_fields(mu) + "\n") * (hi - lo)
            text = (fmt % tuple(U[lo:hi].ravel().tolist())).encode()
            newlines = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
            ends.append(buf.tell() + 1 + newlines)
            buf.write(text)
        out.append((buf, np.concatenate(ends)))
    return out


def _field_rows(fields, lo: int, hi: int) -> list:
    """The ``u0,...`` texts of samples lo..hi-1 of one window."""
    buf, off = fields
    return buf[off[lo]:off[hi] - 1].decode().split("\n")


def emit_trajectory(traj: PiecewiseTrajectory, control, path: str,
                    control_fields: Optional[list] = None) -> None:
    """One row per stored sample: t, window kind, breakpoint side, state
    components, control components.  Breakpoints appear twice, flagged L/R;
    control columns are zero off the control windows.  ``control_fields``
    are the control's formatted fields as ``emit_control`` returns them;
    without them the control is formatted here."""
    d = traj.dim
    mu = control.samples[0].shape[1] if control is not None else 0
    if control is not None and control_fields is None:
        control_fields = _format_control(control)
    header = (["t", "kind", "side"] + [f"x{i}" for i in range(d)]
              + [f"u{i}" for i in range(mu)])
    # (kind, side of the first row, times, states, control fields or None)
    pieces = [("history", "-", traj.history_times(), traj.history, None)]
    for k, (a, end, kind, j) in enumerate(traj.mesh.intervals()):
        u = control_fields[j] if kind == "control" and control is not None else None
        pieces.append((kind, "R", traj.seg_times[k], traj.seg_values[k], u))

    def chunks():
        for kind, first, times, values, u in pieces:
            tail = ",0" * mu if u is None else ",%s"
            row = {side: f"%.17g,{kind},{side},{_fields(d)}{tail}\r\n"
                   for side in (first, "-", "L")}
            mid = row["-"]
            n = len(times)
            for lo, hi in _chunks(n, 1 + d + mu):
                fmt = mid * (hi - lo)
                if lo == 0:
                    fmt = row[first] + fmt[len(mid):]
                if hi == n:
                    fmt = fmt[:len(fmt) - len(mid)] + row["L"]
                cells = np.empty((hi - lo, 1 + d + (u is not None)), dtype=object)
                cells[:, 0] = times[lo:hi]
                cells[:, 1:1 + d] = values[lo:hi]
                if u is not None:
                    cells[:, -1] = np.array(_field_rows(u, lo, hi), dtype=object)
                yield fmt % tuple(cells.ravel().tolist())

    _write_csv(path, header, chunks())


def emit_control(control, path: str) -> list:
    """Control samples alone: t, window index, control components.  Returns
    the formatted control fields, as ``_format_control`` holds them, for
    ``emit_trajectory``."""
    mu = control.samples[0].shape[1]
    header = ["t", "window"] + [f"u{i}" for i in range(mu)]
    control_fields = _format_control(control)

    def chunks():
        for j, (times, fields) in enumerate(zip(control.window_times,
                                                control_fields)):
            row = f"%.17g,{j},%s\r\n"
            for lo, hi in _chunks(len(times), 1 + mu):
                cells = [None] * (2 * (hi - lo))
                cells[0::2] = times[lo:hi].tolist()
                cells[1::2] = _field_rows(fields, lo, hi)
                yield (row * (hi - lo)) % tuple(cells)

    _write_csv(path, header, chunks())
    return control_fields


def _write_csv(path: str, header, chunks) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_trajectory_csv(path: str) -> dict:
    """Re-ingest an emitted trajectory CSV.

    Returns times, kinds, sides and the state/control arrays; path samples
    (kind != history) reproduce the emitted values bit-exactly.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = sum(1 for name in header if name.startswith("x"))
        times, kinds, sides, states, controls = [], [], [], [], []
        for row in reader:
            times.append(float(row[0]))
            kinds.append(row[1])
            sides.append(row[2])
            states.append([float(v) for v in row[3:3 + d]])
            controls.append([float(v) for v in row[3 + d:]])
    return {"times": np.array(times), "kinds": kinds, "sides": sides,
            "states": np.array(states), "controls": np.array(controls)}


def path_sup_norm_from_csv(data: dict, weight: float = 1.0) -> float:
    """Sup state norm over all non-history rows of a re-ingested CSV."""
    mask = np.array([k != "history" for k in data["kinds"]])
    norms = np.linalg.norm(data["states"][mask], axis=1)
    return float(np.sqrt(weight) * norms.max())


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def build_report(command: str, echo: dict, numerics, certificate=None,
                 blocks=None, solve=None, verdict=None, oracle_cmp=None,
                 timings: Optional[dict] = None) -> dict:
    """Assemble the JSON report with a stable field order."""
    out = {
        "schema": "evosteer-report/1",
        "command": command,
        "seed": numerics.seed,
        "config": echo,
    }
    if certificate is not None:
        out["certificate"] = certificate.as_dict()
    if blocks is not None:
        out["gramians"] = {
            "min_eig": [b.min_eig for b in blocks],
            "ridge": [b.ridge for b in blocks],
            "floor_used": [b.floor_used for b in blocks],
        }
    if solve is not None:
        out["solve"] = {
            "converged": solve.converged,
            "iterations": solve.iterations,
            "final_update": solve.final_update,
            "measured_ratio": solve.measured_ratio,
            "per_window_defect": list(solve.per_window_defect),
            "control_sup": solve.control_sup_norms(),
            "frozen_forcing_rows": solve.frozen_forcing_rows,
            "window_solves": solve.window_solves,
        }
    if verdict is not None:
        out["targets"] = {
            "tol": verdict.tol_hit,
            "defects": list(verdict.defects),
            "hits": list(verdict.hits),
            "totally_controllable": verdict.totally_controllable,
            "exactly_controllable": verdict.exactly_controllable,
        }
    if oracle_cmp is not None:
        out["oracle"] = oracle_cmp
    if timings is not None:
        out["timings"] = timings
    return out


def ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
