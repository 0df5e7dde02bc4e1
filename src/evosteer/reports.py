"""Emission of run artifacts: trajectory/control CSV files and the JSON
report.  All numbers are written at full precision (%.17g) so re-ingesting a
file reproduces the run's norms exactly and identical runs emit identical
bytes.  CSV rows are streamed to the file one at a time, each formatted by a
single ``%`` into the bytes ``csv.writer`` would write (no field ever needs
quoting; rows end in CRLF)."""

from __future__ import annotations

import csv
import json
import os
from typing import Optional

import numpy as np

from .core import PiecewiseTrajectory


def _row_format(prefix: str, columns: int) -> str:
    """A row: the text ``prefix`` then ``columns`` %.17g fields."""
    return prefix + ",".join(["%.17g"] * columns) + "\r\n"


def emit_trajectory(traj: PiecewiseTrajectory, control, path: str) -> None:
    """One row per stored sample: t, window kind, breakpoint side, state
    components, control components.  Breakpoints appear twice, flagged L/R;
    control columns are zero off the control windows."""
    d = traj.dim
    mu = control.samples[0].shape[1] if control is not None else 0
    header = (["t", "kind", "side"] + [f"x{i}" for i in range(d)]
              + [f"u{i}" for i in range(mu)])
    fmt = _row_format("%.17g,%s,%s,", d + mu)
    zeros_u = (0.0,) * mu

    def rows():
        htimes = traj.history_times()
        for i, t in enumerate(htimes):
            side = "L" if i == len(htimes) - 1 else "-"
            yield fmt % ((float(t), "history", side)
                         + tuple(traj.history[i].tolist()) + zeros_u)
        for k, (a, end, kind, j) in enumerate(traj.mesh.intervals()):
            times = traj.seg_times[k]
            vals = traj.seg_values[k]
            U = control.samples[j] if kind == "control" and control is not None else None
            last = len(times) - 1
            for i, t in enumerate(times.tolist()):
                side = "R" if i == 0 else "L" if i == last else "-"
                u = tuple(U[i].tolist()) if U is not None else zeros_u
                yield fmt % ((t, kind, side) + tuple(vals[i].tolist()) + u)

    _write_csv(path, header, rows())


def emit_control(control, path: str) -> None:
    """Control samples alone: t, window index, control components."""
    mu = control.samples[0].shape[1]
    header = ["t", "window"] + [f"u{i}" for i in range(mu)]
    fmt = _row_format("%.17g,%d,", mu)

    def rows():
        for j, (times, U) in enumerate(zip(control.window_times, control.samples)):
            for t, u in zip(times.tolist(), U):
                yield fmt % ((t, j) + tuple(u.tolist()))

    _write_csv(path, header, rows())


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(rows)
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
