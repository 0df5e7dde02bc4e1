"""The benchmark's workloads: seeded INI inputs, one instance driven exactly
like the command line, and the correctness gate on what the instance wrote.

The program receives only the generated INI file.  Everything random (the
transport target fields, the dense linear systems) is drawn here from the
workload seed, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from evosteer import cli

TARGET_TOL = 1e-6   # the verdict's hit tolerance (numerics.target_tol default)
ORACLE_TOL = 1e-6   # criterion-03 bound on the solver-vs-oracle sup distance


def _vec(v) -> str:
    return " ".join("%.17g" % float(x) for x in v)


def _mat(rows) -> str:
    return "; ".join(_vec(r) for r in rows)


@dataclass(frozen=True)
class Instance:
    """One generated input: its INI text and what the gate checks it against."""

    command: str
    ini: str
    targets: list
    weight: float        # the state inner-product weight (h on the transport grid)
    dim: int


@dataclass(frozen=True)
class Workload:
    """A named instance generator.

    ``nominal_s`` is the seed-commit time of one instance; it turns a run's
    time budget into a fixed instance count, so one budget always measures
    the same work and a faster program shows as a shorter ``wall_s``.
    """

    name: str
    command: str
    nominal_s: float
    generate: Callable[[np.random.Generator, int, str], tuple]

    def instance_count(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_s))

    def instance(self, seed: int, index: int, outdir: Path) -> Instance:
        rng = np.random.default_rng([seed, index])
        ini, targets, weight = self.generate(rng, index, str(outdir))
        return Instance(command=self.command, ini=ini, targets=targets,
                        weight=weight, dim=len(targets[0]))


def _smooth_unit_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """First four sine modes with normal weights, unit norm on the grid."""
    nodes = np.arange(n) * np.pi / n
    coeff = rng.normal(size=4)
    field = sum(c * np.sin((k + 1) * nodes) for k, c in enumerate(coeff))
    return field / (math.sqrt(np.pi / n) * np.linalg.norm(field))


def _transport(name: str, preset: str, params: str, n: int, time_step: float,
               nominal_s: float) -> Workload:
    def generate(rng, index, outdir):
        targets = [_smooth_unit_field(rng, n) for _ in range(2)]
        ini = f"""[problem]
preset = {preset}
n = {n}
beta = 1.0
{params}
targets = {_mat(targets)}

[mesh]
breakpoints = 0 0.3 0.5 1.0

[numerics]
time_step = {time_step!r}
history_samples = 128
tol = 1e-9
max_iter = 200
seed = {index}

[outputs]
directory = {outdir}
"""
        return ini, targets, np.pi / n
    return Workload(name, "solve", nominal_s, generate)


def transport_semilinear(n: int = 256, time_step: float = 1e-3,
                         nominal_s: float = 9.5) -> Workload:
    """The Case-1 preset (delayed sine forcing, nonlocal coupling) with
    seeded target rows."""
    return _transport("transport-semilinear", "transport-case1",
                      "k0 = 0.05\nalphas = 0.1\ninstants = 0.2",
                      n, time_step, nominal_s)


def transport_integro(n: int = 64, time_step: float = 2.5e-4,
                      nominal_s: float = 9.5) -> Workload:
    """The Case-2 preset (dense Volterra kernel) with seeded target rows."""
    return _transport("transport-integro", "transport-case2", "a = 0.0",
                      n, time_step, nominal_s)


def linear_oracle(time_step: float = 3e-4, nominal_s: float = 1.0) -> Workload:
    """Random dense systems of the acceptance-corpus shape, dimension cycling
    through 2..6 so every seed carries the same mix of sizes."""
    def generate(rng, index, outdir):
        dim = 2 + index % 5
        A = rng.normal(size=(dim, dim))
        A *= rng.uniform(0.5, 1.0) / np.linalg.norm(A, 2)
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        B = Q @ np.diag(rng.uniform(0.8, 1.25, size=dim))
        phi0 = rng.normal(size=dim)
        phi0 *= 0.5 / np.linalg.norm(phi0)
        targets = []
        for _ in range(2):
            z = rng.normal(size=dim)
            targets.append(z / np.linalg.norm(z))
        ini = f"""[problem]
kind = linear
generator = {_mat(A)}
control = {_mat(B)}
phi0 = {_vec(phi0)}
beta = 1.0
impulse = theta_x
targets = {_mat(targets)}

[mesh]
breakpoints = 0 0.45 0.55 1

[numerics]
time_step = {time_step!r}
history_samples = 32
tol = 1e-11
max_iter = 60
oracle_refine = 10
seed = {index}

[outputs]
directory = {outdir}
"""
        return ini, targets, 1.0
    return Workload("linear-oracle", "oracle", nominal_s, generate)


WORKLOADS = {w.name: w for w in (transport_semilinear(), transport_integro(),
                                 linear_oracle())}


def drive(command: str, ini_path: Path) -> tuple:
    """One instance through the command-line entry point: config file to
    written report.  Returns (seconds, exit code, printed summary)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(ini_path)])
    return time.perf_counter() - t0, code, out.getvalue().strip()


def _read_states(path: Path) -> tuple:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    d = sum(1 for name in header if name.startswith("x"))
    states = np.array([r[3:3 + d] for r in rows], dtype=float)
    return [r[1] for r in rows], [r[2] for r in rows], states


def check(inst: Instance, outdir: Path, code: int) -> dict:
    """The correctness gate on the files one instance wrote.

    Passes when the command exited 0, the report says converged and totally
    controllable, every window end read back from trajectory.csv lies within
    TARGET_TOL of the target this benchmark generated, and (oracle command)
    the solver-vs-oracle sup distance, recomputed from the two CSV files, is
    within ORACLE_TOL.  Also returns the output fingerprint.
    """
    problems = []
    rec = {"exit_code": code}
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads((outdir / "report.json").read_text())
        kinds, sides, states = _read_states(outdir / "trajectory.csv")
        digest = hashlib.sha256()
        for name in ("trajectory.csv", "control.csv"):
            digest.update((outdir / name).read_bytes())
    except (OSError, ValueError, StopIteration) as exc:
        problems.append(f"unreadable output: {exc}")
        return {**rec, "ok": False, "problems": problems, "iterations": 0}

    solve = report.get("solve", {})
    rec["iterations"] = int(solve.get("iterations", 0))
    if not solve.get("converged"):
        problems.append("not converged")
    if not report.get("targets", {}).get("totally_controllable"):
        problems.append("verdict is not totally controllable")

    scale = math.sqrt(inst.weight)
    ends = [x for x, k, s in zip(states, kinds, sides) if k == "control" and s == "L"]
    if len(ends) != len(inst.targets):
        problems.append(f"{len(ends)} window ends for {len(inst.targets)} targets")
    defects = [scale * float(np.linalg.norm(x - z)) for x, z in zip(ends, inst.targets)]
    if any(d > TARGET_TOL for d in defects):
        problems.append(f"window defects {defects} above {TARGET_TOL:g}")
    path = np.array([k != "history" for k in kinds])
    rec.update(defects=defects,
               path_sup_norm=scale * float(np.linalg.norm(states[path], axis=1).max()),
               sha256=digest.hexdigest())

    if inst.command == "oracle":
        try:
            okinds, _, ostates = _read_states(outdir / "oracle.csv")
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"unreadable oracle output: {exc}")
        else:
            if okinds != kinds:
                problems.append("oracle and solver grids differ")
            else:
                dist = scale * float(np.linalg.norm(states[path] - ostates[path],
                                                    axis=1).max())
                rec["oracle_distance"] = dist
                if dist > ORACLE_TOL:
                    problems.append(f"oracle distance {dist:.3e} above {ORACLE_TOL:g}")
    return {**rec, "ok": not problems, "problems": problems}
