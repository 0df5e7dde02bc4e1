"""Run configuration: INI-style files with problem / mesh / numerics /
outputs sections, matrices as ';'-separated whitespace row lists.

Parsed with the stdlib configparser; every validation error names the
offending section.key so the CLI can fail with an actionable message, and an
unknown section or key is refused, not ignored: a preset takes only the keys
its builder reads.  Random targets are drawn from ``[numerics] seed``.
"""

from __future__ import annotations

import configparser
import inspect
import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import FieldError, TimeMesh
from .problems import Numerics, Problem
from .semigroups import MatrixSemigroup
from .transport import build_case1, build_case2, smooth_targets

OUTDIR_ENV = "EVOSTEER_OUTDIR"

# Each preset's builder and the [problem] keys it reads besides ``preset`` and
# ``targets``: its parameters less ``mesh``, lower-cased as configparser reads
# keys, each with its parameter and its default's type as the cast (tuple: a
# vector).
_PRESETS = {name: (build, {p.name.lower(): (p.name, type(p.default))
                           for p in inspect.signature(build).parameters.values()
                           if p.name != "mesh"})
            for name, build in (("transport-case1", build_case1),
                                ("transport-case2", build_case2))}


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
    if not preset and kind != "linear":
        raise ConfigError("problem.preset or problem.kind = linear is required")
    try:
        problem, draw = (_load_preset(prob, preset, mesh) if preset
                         else _load_linear(prob, mesh))
    except FieldError as exc:
        # a field is named as its owner knows it; configparser lower-cases keys
        raise ConfigError(f"problem.{exc.field.lower()}: {exc}") from exc
    targets = _load_targets(prob, problem, draw, numerics.seed)
    for field, rows in (("phi0", [problem.phi0()]), ("targets", targets)):
        with np.errstate(over="ignore"):    # an overflow is refused, not warned of
            if not all(np.isfinite(problem.norm(r)) for r in rows):
                raise ConfigError(f"problem.{field}: weighted norm overflows")

    outdir = "out"
    if parser.has_section("outputs"):
        outdir = parser["outputs"].get("directory", "out").strip() or "out"
    outdir = os.environ.get(OUTDIR_ENV) or outdir    # an empty value is unset
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


def _load_targets(sec, problem: Problem, draw, seed: int) -> list:
    """``problem.targets``: ``random``, the default, for the variant's
    seeded ``draw(problem, seed)``, else one row per control window."""
    raw = _get(sec, "targets", str, "problem.targets", "random")
    if raw == "random":
        return draw(problem, seed)
    rows = _parse_matrix(raw, "problem.targets")
    shape = (problem.mesh.n_impulses + 1, problem.dim)
    if rows.shape != shape:
        raise ConfigError("problem.targets: need {} rows of length {}, one per "
                          "control window, got {} of length {}"
                          .format(*shape, *rows.shape))
    return list(rows)


def _unit_targets(problem: Problem, seed: int) -> list:
    """One random unit vector per control window, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    targets = []
    for _ in range(problem.mesh.n_impulses + 1):
        z = rng.normal(size=problem.dim)
        targets.append(z / np.linalg.norm(z))
    return targets


def _load_preset(sec, preset: str, mesh):
    builder, keys = _PRESETS[preset]
    kwargs = {} if mesh is None else {"mesh": mesh}
    for key, (param, cast) in keys.items():
        val = _get(sec, key, cast, field=f"problem.{key}")
        if val is not None:
            kwargs[param] = val
    return builder(**kwargs), smooth_targets


def _load_linear(sec, mesh):
    if mesh is None:
        raise ConfigError("mesh.breakpoints: is required for linear problems")
    gen_raw = sec.get("generator", "").strip()
    if not gen_raw:
        raise ConfigError("problem.generator: is required for linear problems")
    semigroup = MatrixSemigroup(_parse_matrix(gen_raw, "problem.generator"))
    d = semigroup.dim
    ctrl_raw = sec.get("control", "").strip()
    B = _parse_matrix(ctrl_raw, "problem.control") if ctrl_raw else np.eye(d)
    phi0 = np.array(_get(sec, "phi0", tuple, "problem.phi0", (0.0,) * d))
    if phi0.shape != (d,):
        raise ConfigError("problem.phi0: length must match the generator")
    beta = _get(sec, "beta", float, default=1.0, field="problem.beta")

    impulse = _get(sec, "impulse", str, "problem.impulse", "theta_x")
    if impulse != "theta_x":
        raise ConfigError(f"problem.impulse: unknown kind {impulse!r}")

    def history(s: float) -> np.ndarray:
        return phi0

    problem = Problem(semigroup=semigroup, control_matrix=B, mesh=mesh,
                      beta=beta, history=history)
    return problem, _unit_targets
