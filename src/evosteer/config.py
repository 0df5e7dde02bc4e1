"""Run configuration: INI-style files with problem / mesh / numerics /
outputs sections, matrices as ';'-separated whitespace row lists.

Parsed with the stdlib configparser; every validation error names the
offending section.key so the CLI can fail with an actionable message.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .core import build_time_mesh
from .problems import AssumptionConstants, Numerics, Problem
from .semigroups import MatrixSemigroup, growth_bound
from .transport import TransportConfig, build_case1, build_case2

OUTDIR_ENV = "EVOSTEER_OUTDIR"

_PRESETS = ("transport-case1", "transport-case2")


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the field."""


@dataclass
class RunConfig:
    problem: Problem
    targets: list
    numerics: Numerics
    outdir: str
    echo: dict


def _parse_vector(text: str, field: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split()], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{field}: expected whitespace-separated numbers") from exc


def _parse_matrix(text: str, field: str) -> np.ndarray:
    rows = [r.strip() for r in text.replace("\n", ";").split(";") if r.strip()]
    if not rows:
        raise ConfigError(f"{field}: empty matrix")
    data = [_parse_vector(r, field) for r in rows]
    if len({len(r) for r in data}) != 1:
        raise ConfigError(f"{field}: rows have unequal lengths")
    return np.array(data)


def _get(section, key, cast, default=None, field=""):
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cast(raw.strip())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field or key}: cannot parse {raw!r}") from exc


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    echo = {s: dict(parser.items(s)) for s in parser.sections()}

    numerics = _load_numerics(parser)
    mesh = _load_mesh(parser)
    prob = parser["problem"] if parser.has_section("problem") else {}
    preset = prob.get("preset", "").strip() if prob else ""
    kind = prob.get("kind", "").strip() if prob else ""
    if preset:
        problem, targets = _load_preset(prob, preset, mesh, numerics)
    elif kind == "linear":
        problem, targets = _load_linear(prob, mesh, numerics)
    else:
        raise ConfigError("problem.preset or problem.kind = linear is required")

    outdir = "out"
    if parser.has_section("outputs"):
        outdir = parser["outputs"].get("directory", "out").strip() or "out"
    outdir = os.environ.get(OUTDIR_ENV, outdir)
    return RunConfig(problem=problem, targets=targets, numerics=numerics,
                     outdir=outdir, echo=echo)


_NUMERICS_KEYS = {"time_step": float, "history_samples": int, "tol": float,
                  "max_iter": int, "delta_floor": float, "ridge": float,
                  "oracle_refine": int, "target_tol": float, "seed": int}


def _load_numerics(parser) -> Numerics:
    sec = parser["numerics"] if parser.has_section("numerics") else {}
    for key in sec:
        if key not in _NUMERICS_KEYS:
            raise ConfigError(f"numerics.{key}: unknown key")
    kwargs = {}
    for key, cast in _NUMERICS_KEYS.items():
        val = _get(sec, key, cast, field=f"numerics.{key}")
        if val is not None:
            kwargs[key] = val
    try:
        return Numerics(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"numerics: {exc}") from exc


def _load_mesh(parser):
    if not parser.has_section("mesh"):
        return None
    sec = parser["mesh"]
    pts_raw = sec.get("breakpoints", "").strip()
    if not pts_raw:
        return None
    pts = _parse_vector(pts_raw, "mesh.breakpoints")
    b = _get(sec, "b", float, default=float(pts[-1]), field="mesh.b")
    try:
        return build_time_mesh(pts, b)
    except ValueError as exc:
        raise ConfigError(f"mesh.breakpoints: {exc}") from exc


def _load_preset(sec, preset: str, mesh, numerics: Numerics):
    if preset not in _PRESETS:
        raise ConfigError(f"problem.preset: unknown preset {preset!r}; "
                          f"choose from {', '.join(_PRESETS)}")
    kwargs = {}
    if mesh is not None:
        kwargs["mesh"] = mesh
    for key, cast in (("n", int), ("beta", float), ("k0", float), ("a", float),
                      ("seed", int)):
        val = _get(sec, key, cast, field=f"problem.{key}")
        if val is not None:
            kwargs["N" if key == "n" else key] = val
    for key in ("alphas", "instants"):
        raw = sec.get(key, "").strip()
        if raw:
            kwargs[key] = tuple(_parse_vector(raw, f"problem.{key}"))
    targets_raw = sec.get("targets", "random").strip()
    try:
        cfg = TransportConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    if targets_raw and targets_raw != "random":
        rows = _parse_matrix(targets_raw, "problem.targets")
        if rows.shape != (cfg.mesh.n_impulses + 1, cfg.N):
            raise ConfigError("problem.targets: need one row of length N per "
                              "control window")
        cfg.targets = [r for r in rows]
    builder = build_case1 if preset.endswith("case1") else build_case2
    problem = builder(cfg)
    return problem, cfg.resolved_targets()


def _load_linear(sec, mesh, numerics: Numerics):
    if mesh is None:
        raise ConfigError("mesh.breakpoints is required for linear problems")
    gen_raw = sec.get("generator", "").strip()
    if not gen_raw:
        raise ConfigError("problem.generator is required for linear problems")
    A = _parse_matrix(gen_raw, "problem.generator")
    if A.shape[0] != A.shape[1]:
        raise ConfigError("problem.generator must be square")
    d = A.shape[0]
    ctrl_raw = sec.get("control", "").strip()
    B = _parse_matrix(ctrl_raw, "problem.control") if ctrl_raw else np.eye(d)
    if B.shape[0] != d:
        raise ConfigError("problem.control row count must match the generator")
    phi0 = _parse_vector(sec.get("phi0", " ".join(["0"] * d)), "problem.phi0")
    if phi0.shape != (d,):
        raise ConfigError("problem.phi0 length must match the generator")
    beta = _get(sec, "beta", float, default=1.0, field="problem.beta")
    if beta is None or beta <= 0:
        raise ConfigError("problem.beta must be > 0")

    semigroup = MatrixSemigroup(A)
    K_declared = _get(sec, "semigroup_bound", float, field="problem.semigroup_bound")
    if K_declared is None:
        K_declared = max(1.0, growth_bound(semigroup, np.linspace(0.0, mesh.b, 33))
                         * (1.0 + 1e-12))
    M_norm = float(np.linalg.norm(B, 2))

    impulse_kind = sec.get("impulse", "theta_x" if mesh.n_impulses else "none").strip()
    if impulse_kind == "theta_x":
        impulses = tuple((lambda th, x: th * np.asarray(x, dtype=float))
                         for _ in range(mesh.n_impulses))
        lips = tuple(mesh.lam[j] for j in range(1, mesh.n_impulses + 1))
    elif impulse_kind == "none":
        if mesh.n_impulses:
            raise ConfigError("problem.impulse = none requires a mesh without "
                              "impulse windows")
        impulses, lips = (), ()
    else:
        raise ConfigError(f"problem.impulse: unknown kind {impulse_kind!r}")

    targets_raw = sec.get("targets", "random").strip()
    n_windows = mesh.n_impulses + 1
    if targets_raw == "random":
        rng = np.random.default_rng(numerics.seed)
        targets = []
        for _ in range(n_windows):
            z = rng.normal(size=d)
            targets.append(z / np.linalg.norm(z))
    else:
        rows = _parse_matrix(targets_raw, "problem.targets")
        if rows.shape != (n_windows, d):
            raise ConfigError("problem.targets: need one row per control window")
        targets = [r for r in rows]

    scale = max([1.0, np.linalg.norm(phi0)]
                + [float(np.linalg.norm(z)) for z in targets])
    constants = AssumptionConstants(
        semigroup_bound=K_declared, control_op_norm=M_norm,
        impulse_lipschitz=lips,
        impulse_sup=tuple(2.0 * imp_l * scale * K_declared for imp_l in lips))

    def history(s: float) -> np.ndarray:
        return phi0

    problem = Problem(semigroup=semigroup, control_matrix=B, mesh=mesh,
                      beta=beta, history=history, impulses=impulses,
                      constants=constants)
    return problem, targets
