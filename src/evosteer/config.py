"""Run configuration: INI-style files with problem / mesh / numerics /
outputs sections, matrices as ';'-separated whitespace row lists.

Parsed with the stdlib configparser; every validation error names the
offending section.key so the CLI can fail with an actionable message, and an
unknown section or key is refused, not ignored: a preset takes only the keys
its builder reads.  Random targets are drawn from ``[numerics] seed``.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import TimeMesh
from .problems import AssumptionConstants, FieldError, Numerics, Problem
from .semigroups import MatrixSemigroup
from .transport import TransportConfig, build_case1, build_case2

OUTDIR_ENV = "EVOSTEER_OUTDIR"

# Each preset's builder and the [problem] keys it reads, with their casts
# (tuple: a vector), besides ``preset`` and ``targets``.
_PRESETS = {
    "transport-case1": (build_case1, {"n": int, "beta": float, "k0": float,
                                      "alphas": tuple, "instants": tuple}),
    "transport-case2": (build_case2, {"n": int, "beta": float, "a": float}),
}


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
        vec = np.array([float(x) for x in text.split()], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{field}: expected whitespace-separated numbers") from exc
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"{field}: expected finite numbers, got {text.strip()!r}")
    return vec


def _parse_matrix(text: str, field: str) -> np.ndarray:
    rows = [r.strip() for r in text.replace("\n", ";").split(";") if r.strip()]
    if not rows:
        raise ConfigError(f"{field}: empty matrix")
    data = [_parse_vector(r, field) for r in rows]
    if len({len(r) for r in data}) != 1:
        raise ConfigError(f"{field}: rows have unequal lengths")
    return np.array(data)


def _get(section, key, cast, field, default=None):
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    if cast is tuple:
        return tuple(_parse_vector(raw, field))
    try:
        val = cast(raw.strip())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: cannot parse {raw!r}") from exc
    if cast is float and not np.isfinite(val):
        raise ConfigError(f"{field}: expected a finite number, got {raw!r}")
    return val


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        # universal newlines, as a file opened in text mode reads them
        parser.read_file(io.StringIO(text, newline=None), source=path)
        echo = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{exc.section}.{exc.option}: duplicate key "
                          f"(line {exc.lineno})") from exc
    except configparser.InterpolationError as exc:
        raise ConfigError(f"{exc.section}.{exc.option}: {exc.message}") from exc
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc

    prob = parser["problem"] if parser.has_section("problem") else {}
    preset = prob.get("preset", "").strip()
    kind = prob.get("kind", "").strip()
    if preset and preset not in _PRESETS:
        raise ConfigError(f"problem.preset: unknown preset {preset!r}; "
                          f"choose from {', '.join(_PRESETS)}")
    known = {"problem": (_PRESETS[preset][1].keys() | {"preset", "targets"}
                         if preset else _LINEAR_KEYS),
             "mesh": {"breakpoints"}, "numerics": _NUMERICS_KEYS.keys(),
             "outputs": {"directory"}}
    for name in parser.sections():
        if name not in known:
            raise ConfigError(f"[{name}]: unknown section")
        for key in parser[name]:
            if key not in known[name]:
                raise ConfigError(f"{name}.{key}: unknown key")
    numerics = _load_numerics(parser)
    mesh = _load_mesh(parser)
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


_NUMERICS_KEYS = {f.name: type(f.default) for f in fields(Numerics)}
_LINEAR_KEYS = {"kind", "generator", "control", "phi0", "beta", "impulse",
                "targets"}


def _load_numerics(parser) -> Numerics:
    sec = parser["numerics"] if parser.has_section("numerics") else {}
    kwargs = {}
    for key, cast in _NUMERICS_KEYS.items():
        val = _get(sec, key, cast, field=f"numerics.{key}")
        if val is not None:
            kwargs[key] = val
    try:
        return Numerics(**kwargs)
    except FieldError as exc:
        raise ConfigError(f"numerics.{exc.field}: {exc}") from exc


def _load_mesh(parser):
    sec = parser["mesh"] if parser.has_section("mesh") else {}
    pts_raw = sec.get("breakpoints", "").strip()
    if not pts_raw:
        return None
    try:
        return TimeMesh(_parse_vector(pts_raw, "mesh.breakpoints"))
    except ValueError as exc:
        raise ConfigError(f"mesh.breakpoints: {exc}") from exc


def _load_preset(sec, preset: str, mesh, numerics: Numerics):
    builder, keys = _PRESETS[preset]
    kwargs = {"seed": numerics.seed}
    if mesh is not None:
        kwargs["mesh"] = mesh
    for key, cast in keys.items():
        val = _get(sec, key, cast, field=f"problem.{key}")
        if val is not None:
            kwargs["N" if key == "n" else key] = val
    targets_raw = sec.get("targets", "random").strip()
    try:
        cfg = TransportConfig(**kwargs)
    except FieldError as exc:
        # the keys are the fields' names, which configparser lower-cases
        raise ConfigError(f"problem.{exc.field.lower()}: {exc}") from exc
    if targets_raw and targets_raw != "random":
        rows = _parse_matrix(targets_raw, "problem.targets")
        if rows.shape != (cfg.mesh.n_impulses + 1, cfg.N):
            raise ConfigError("problem.targets: need one row of length N per "
                              "control window")
        cfg.targets = [r for r in rows]
    return builder(cfg), cfg.resolved_targets()


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

    if sec.get("impulse", "theta_x").strip() != "theta_x":
        raise ConfigError(f"problem.impulse: unknown kind {sec['impulse'].strip()!r}")
    impulses = tuple(np.outer for _ in range(mesh.n_impulses))
    lips = tuple(mesh.lam[j] for j in range(1, mesh.n_impulses + 1))

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
    K = semigroup.bound(mesh.b)
    constants = AssumptionConstants(
        impulse_lipschitz=lips,
        impulse_sup=tuple(2.0 * imp_l * scale * K for imp_l in lips))

    def history(s: float) -> np.ndarray:
        return phi0

    problem = Problem(semigroup=semigroup, control_matrix=B, mesh=mesh,
                      beta=beta, history=history, impulses=impulses,
                      constants=constants)
    return problem, targets
