import argparse
import configparser
import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from evosteer import cli, reports
from evosteer.cli import main
from evosteer.config import ConfigError, load_config
from evosteer.core import PiecewiseTrajectory, TimeMesh, path_sup_norm
from evosteer.gramian import ControlSignal
from evosteer.reports import (emit_control, emit_trajectory,
                              path_sup_norm_from_csv, read_trajectory_csv)
from evosteer.runner import run
from evosteer.solver import Sweep
from evosteer.transport import smooth_unit_field

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

PRESET_CFG = """
[problem]
preset = transport-case1
n = 12

[mesh]
breakpoints = 0 0.3 0.5 1.0

[numerics]
time_step = 5e-3
history_samples = 32

[outputs]
directory = {out}
"""

LINEAR_CFG = """
[problem]
kind = linear
generator = 0 1; -1 0
control = 1 0; 0 1
phi0 = 0.5 0
beta = 1.0
targets = random

[mesh]
breakpoints = 0 0.4 0.6 1.0

[numerics]
time_step = 1e-3
seed = 3

[outputs]
directory = {out}
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_preset_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.ini",
                                PRESET_CFG.format(out=tmp_path / "o")))
        assert cfg.problem.dim == 12
        assert cfg.numerics.time_step == 5e-3
        assert len(cfg.targets) == 2
        assert cfg.echo["problem"]["preset"] == "transport-case1"

    def test_linear_matrices(self, tmp_path):
        cfg = load_config(write(tmp_path, "b.ini",
                                LINEAR_CFG.format(out=tmp_path / "o")))
        np.testing.assert_array_equal(cfg.problem.semigroup.A,
                                      [[0.0, 1.0], [-1.0, 0.0]])
        assert cfg.problem.mesh.n_impulses == 1
        assert cfg.problem.semigroup.bound(cfg.problem.mesh.b) >= 1.0

    @pytest.mark.parametrize("generator,sup_norm", [
        ("0 0; 0 0", 1.0),
        ("-1 0; 0 -1", 1.0),
        # non-normal: the sup of |e^{tA}|_2 over [0, 1] is 7.3760 near
        # t = 0.2, between the nodes of a 33-point sample grid (7.3634)
        ("-5 100; 0 -5", 7.376)], ids=["zero", "decaying", "non-normal"])
    def test_linear_semigroup_bound_covers_every_time(self, tmp_path,
                                                      generator, sup_norm):
        text = LINEAR_CFG.format(out=tmp_path / "o").replace(
            "generator = 0 1; -1 0", f"generator = {generator}")
        cfg = load_config(write(tmp_path, "k.ini", text))
        A = cfg.problem.semigroup.A
        K = cfg.problem.semigroup.bound(cfg.problem.mesh.b)
        norms = [np.linalg.norm(expm(t * A), 2)
                 for t in np.linspace(0.0, cfg.problem.mesh.b, 4001)]
        assert max(norms) == pytest.approx(sup_norm, abs=1e-4)
        assert K >= max(norms)
        if sup_norm == 1.0:
            assert K == 1.0
        else:
            # the log-norm bound e^{b mu_2(A)} alone gave 3.49e19
            assert K <= 7.71

    @pytest.mark.parametrize("generator, mu", [
        ("-5 100; 0 -5", 45.0), ("0.3 0; 0 -1", 0.3)], ids=["non-normal", "normal"])
    def test_linear_semigroup_bound_is_the_smaller_bound(self, tmp_path,
                                                         generator, mu):
        # K = min(e^{b mu}, max_k |e^{t_k A}|_2 e^{h mu} (1 + 1e-9)), mu =
        # max(0, mu_2(A)), t_k = k h, h = b / 1024: the sampled bound for
        # the non-normal generator, within 1e-9 of it from the samples taken
        # one by one; the whole-interval bound, exactly, for a normal
        # generator, whose samples peak at e^{b mu}
        text = LINEAR_CFG.format(out=tmp_path / "o").replace(
            "generator = 0 1; -1 0", f"generator = {generator}")
        cfg = load_config(write(tmp_path, "k.ini", text))
        A, b = cfg.problem.semigroup.A, cfg.problem.mesh.b
        K = cfg.problem.semigroup.bound(b)
        h = b / 1024
        sampled = max(np.linalg.norm(expm(k * h * A), 2)
                      for k in range(1025)) * np.exp(h * mu)
        if mu == 45.0:
            assert sampled < K <= sampled * (1.0 + 2e-9)
        else:
            assert K == np.exp(b * mu) < sampled

    def test_shipped_linear_preset_keeps_k_of_one(self):
        # a rotation: mu_2(A) = 0, so K = e^0 = 1 exactly
        cfg = load_config(str(CONFIGS / "linear-2d.ini"))
        assert cfg.problem.semigroup.bound(cfg.problem.mesh.b) == 1.0

    def test_semigroup_bound_key_is_unknown(self, tmp_path, capsys):
        # K is computed from the generator, never declared
        text = LINEAR_CFG.format(out=tmp_path / "o").replace(
            "beta = 1.0", "beta = 1.0\nsemigroup_bound = 2")
        assert main(["certify", write(tmp_path, "k.ini", text)]) == 2
        assert "problem.semigroup_bound: unknown key" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_directory_is_reported_as_unreadable(self, tmp_path, capsys):
        # a path that exists but is not a readable file names its own error,
        # not "not found", and still exits 2
        assert main(["certify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path}: Is a directory" in err
        assert "not found" not in err

    def test_unknown_preset(self, tmp_path):
        bad = PRESET_CFG.replace("transport-case1", "mystery")
        with pytest.raises(ConfigError, match="preset"):
            load_config(write(tmp_path, "c.ini", bad.format(out=tmp_path)))

    def test_bad_matrix_named(self, tmp_path):
        bad = LINEAR_CFG.replace("generator = 0 1; -1 0",
                                 "generator = 0 1; -1")
        with pytest.raises(ConfigError, match="generator"):
            load_config(write(tmp_path, "d.ini", bad.format(out=tmp_path)))

    def test_beta_validation_names_field(self, tmp_path):
        bad = PRESET_CFG.replace("n = 12", "n = 12\nbeta = -1")
        with pytest.raises(ConfigError, match="beta"):
            load_config(write(tmp_path, "e.ini", bad.format(out=tmp_path)))

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / "override"))
        cfg = load_config(write(tmp_path, "f.ini",
                                PRESET_CFG.format(out=tmp_path / "o")))
        assert cfg.outdir == str(tmp_path / "override")

    def test_empty_outdir_env_is_ignored(self, tmp_path, monkeypatch):
        # as an empty [outputs] directory falls back to its default, an
        # empty variable leaves the configured directory
        monkeypatch.setenv("EVOSTEER_OUTDIR", "")
        path = write(tmp_path, "f.ini", PRESET_CFG.format(out=tmp_path / "o"))
        assert load_config(path).outdir == str(tmp_path / "o")
        assert main(["solve", path, "--no-timing"]) == 0
        assert (tmp_path / "o" / "trajectory.csv").is_file()

    @pytest.mark.parametrize("line", ["time_stpe = 1e-5", "quad_steps = 10",
                                      "ridge = 0", "target_tol = nan",
                                      "delta_floor = nan"])
    def test_unknown_numerics_key_named(self, tmp_path, capsys, line):
        # ridge, the Gramian shift (G + ridge I) that no run set, is gone;
        # the hit tolerance and the invertibility floor, which no run set,
        # are the constants solver.TARGET_TOL and gramian.DELTA_FLOOR
        bad = PRESET_CFG.replace("time_step = 5e-3", "time_step = 5e-3\n" + line)
        path = write(tmp_path, "h.ini", bad.format(out=tmp_path / "o"))
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"numerics.{key}: unknown key"):
            load_config(path)
        assert main(["solve", path]) == 2
        assert f"numerics.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, anchor, line, named", [
        # a misspelt key used to leave its default in force, unseen
        ("transport-case1", "instants = 0.2\n", "instnats = 0.9\n",
         "problem.instnats"),
        ("transport-case1", "n = 64\n", "generator = 0 1; -1 0\n",
         "problem.generator"),
        ("linear-2d", "phi0 = 0.5 0\n", "n = 4\n", "problem.n"),
        ("transport-case1", "breakpoints = 0 0.3 0.5 1.0\n",
         "breakpoint = 0 0.4 0.6 1.0\n", "mesh.breakpoint"),
        ("linear-2d", "breakpoints = 0 0.4 0.6 1.0\n", "b = 1.0\n", "mesh.b"),
        ("transport-case2", "directory = out/case2\n", "dir = elsewhere\n",
         "outputs.dir"),
        # a key of the other case used to be read and then ignored
        ("transport-case1", "k0 = 0.05\n", "a = 3\n", "problem.a"),
        ("transport-case2", "a = 0.0\n", "k0 = 5\n", "problem.k0"),
        ("transport-case2", "a = 0.0\n", "alphas = 0.3\n", "problem.alphas"),
        ("transport-case2", "a = 0.0\n", "instants = 0.4\n", "problem.instants"),
        # preset targets are drawn from [numerics] seed, the reported one
        ("transport-case1", "targets = random\n", "seed = 7\n", "problem.seed"),
        ("transport-case2", "targets = random\n", "seed = 7\n", "problem.seed"),
    ], ids=["preset-typo", "linear-key-in-preset", "preset-key-in-linear",
            "mesh-typo", "mesh-b", "outputs", "a-in-case1", "k0-in-case2",
            "alphas-in-case2", "instants-in-case2", "seed-in-case1",
            "seed-in-case2"])
    def test_unknown_key_in_any_section_is_named(self, tmp_path, capsys, preset,
                                                  anchor, line, named):
        text = (CONFIGS / f"{preset}.ini").read_text()
        assert anchor in text
        path = write(tmp_path, "k.ini", text.replace(anchor, anchor + line))
        with pytest.raises(ConfigError, match=f"^{named}: unknown key$"):
            load_config(path)
        assert main(["certify", path]) == 2
        assert capsys.readouterr().err == f"config error: {named}: unknown key\n"

    def test_unknown_section_is_named(self, tmp_path, capsys):
        text = (CONFIGS / "transport-case1.ini").read_text()
        path = write(tmp_path, "s.ini", text + "\n[output]\ndirectory = elsewhere\n")
        with pytest.raises(ConfigError, match=r"^\[output\]: unknown section$"):
            load_config(path)
        assert main(["certify", path]) == 2
        assert capsys.readouterr().err == "config error: [output]: unknown section\n"

    @pytest.mark.parametrize("text, named", [
        ("n = 3\n[problem]\npreset = transport-case1\n", "no section headers"),
        ("[problem]\npreset = transport-case1\n[problem]\nn = 8\n",
         "section 'problem' already exists"),
        ("[problem]\npreset = transport-case1\nn = 8\nn = 12\n",
         "problem.n: duplicate key"),
        ("[problem]\npreset = transport-case1\nn = 8%\n",
         "problem.n: '%' must be followed"),
    ], ids=["missing-header", "duplicate-section", "duplicate-key", "bare-percent"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, text, named):
        path = write(tmp_path, "m.ini", text)
        with pytest.raises(ConfigError, match=named):
            load_config(path)
        assert main(["solve", path]) == 2
        assert named in capsys.readouterr().err

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        # decoded with the locale's codec, the file escaped as a traceback
        # with exit 1, the code of missed targets
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[problem]\npreset = transport-case1\nn = 16\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            load_config(str(path))
        assert main(["certify", str(path)]) == 2
        assert f"{path}: not UTF-8 text (byte 42)" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, field, value", [
        ("transport-case1", "numerics.tol", "nan"),
        ("transport-case1", "numerics.time_step", "nan"),
        ("transport-case1", "problem.instants", "nan"),
        ("transport-case1", "numerics.time_step", "inf"),
        ("linear-2d", "problem.generator", "0 1; nan 0"),
    ], ids=["tol-nan", "time_step-nan", "instants-nan", "time_step-inf",
            "generator-nan"])
    def test_non_finite_number_is_named(self, tmp_path, capsys, monkeypatch,
                                        preset, field, value):
        # every comparison with NaN is false: such a value used to run on to
        # a wrong exit code, a silent verdict or a traceback
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / "out"))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(CONFIGS / f"{preset}.ini")
        if preset == "transport-case1":
            parser["problem"]["n"] = "16"
        section, key = field.split(".")
        parser[section][key] = value
        path = tmp_path / "bad.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["solve", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("preset, field, value", [
        ("transport-case1", "problem.n", "3"),
        ("transport-case1", "problem.beta", "-1"),
        ("transport-case2", "problem.a", "-2"),
        ("transport-case1", "problem.instants", "1.5"),
        ("transport-case1", "problem.alphas", "0.1 0.2"),
        ("transport-case1", "numerics.seed", "-1"),
        ("transport-case2", "numerics.tol", "-1"),
        # theta_x gives no impulse maps on a mesh without impulse windows
        ("linear-2d", "problem.impulse", "none"),
        ("linear-2d", "problem.generator", "0 1 0; -1 0 0"),
        ("linear-2d", "problem.control", "1 0; 0 1; 1 1"),
        ("linear-2d", "problem.beta", "-1"),
        ("linear-2d", "problem.phi0", "0.5 0 0"),
    ], ids=["n-3", "beta-negative", "a-below-minus-1", "instant-past-b",
            "alphas-count", "seed-negative", "tol-negative", "impulse-none",
            "generator-not-square", "control-rows", "linear-beta-negative",
            "phi0-length"])
    def test_out_of_range_preset_key_is_named(self, tmp_path, capsys, monkeypatch,
                                              preset, field, value):
        # a value out of range is named by its key in one format, whether
        # the loader, the builder, the semigroup, Problem or Numerics
        # refuses it, not by the section alone; the count of alphas against
        # instants is reported on alphas
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / "out"))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(CONFIGS / f"{preset}.ini")
        section, key = field.split(".")
        parser[section][key] = value
        path = tmp_path / "bad.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["solve", str(path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "certify", "oracle"])
    @pytest.mark.parametrize("preset, field, value", [
        ("linear-2d", "problem.targets", "1e200 0; 0 1e200"),
        ("linear-2d", "problem.phi0", "1e200 0"),
        ("transport-case1", "problem.targets", "; ".join(["1e200" + " 0" * 63] * 2)),
    ], ids=["targets", "phi0", "preset-targets"])
    def test_overflowing_weighted_norm_is_named(self, tmp_path, capsys, monkeypatch,
                                                command, preset, field, value):
        # the norm of such a row squares past the largest double: solve used
        # to run on to defects of inf reported as converged, and certify to
        # an infinite ball radius and a NaN solution bound, written to
        # report.json as Infinity and NaN, which are not JSON
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / "out"))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(CONFIGS / f"{preset}.ini")
        section, key = field.split(".")
        parser[section][key] = value
        path = tmp_path / "big.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {field}: weighted norm overflows\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_certificate_is_not_reported(self, tmp_path, capsys,
                                                    monkeypatch):
        # e^{800 t} passes the largest double on [0, 1], so K is inf: certify
        # used to print "contraction constant nan" with exit 0 and write
        # Infinity and NaN to report.json
        out = tmp_path / "out"
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        path = write(tmp_path, "g.ini", (CONFIGS / "linear-2d.ini").read_text().replace(
            "generator = 0 1; -1 0", "generator = 800 0; 0 800"))
        assert main(["certify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not JSON compliant" in captured.err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_overflowing_sweep_is_refused(self, tmp_path, capsys, monkeypatch,
                                          command):
        # e^{800 t} drives the steering residual's norm past the largest
        # double: inf <= tol * inf used to pass for convergence, after
        # numpy's overflow warnings, and CSVs holding inf were written
        # before the report was refused
        out = tmp_path / "out"
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        path = write(tmp_path, "g.ini", (CONFIGS / "linear-2d.ini").read_text().replace(
            "generator = 0 1; -1 0", "generator = 800 0; 0 800"))
        assert main([command, path, "--no-timing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the sweep's update or path sup norm overflows\n"
        assert not list(out.glob("*"))

    def test_non_finite_report_is_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("kept\n")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                reports.write_report(str(path), {"solve": {"path_sup": bad}})
        assert path.read_text() == "kept\n"
        reports.write_report(str(path), {"solve": {"path_sup": 1.5}})
        assert path.read_text() == '{\n  "solve": {\n    "path_sup": 1.5\n  }\n}\n'

    def test_negative_numerics_seed_is_a_config_error(self, tmp_path, capsys):
        # np.random.default_rng refused it with a traceback and exit 1, the
        # code of missed targets
        bad = LINEAR_CFG.replace("seed = 3", "seed = -1")
        path = write(tmp_path, "s.ini", bad.format(out=tmp_path / "o"))
        assert main(["solve", path]) == 2
        assert "config error: numerics.seed: seed must be nonnegative" in \
            capsys.readouterr().err

    def test_preset_targets_come_from_the_numerics_seed(self, tmp_path):
        # the seed that draws the random targets is the one report.json echoes
        cfg = load_config(str(CONFIGS / "transport-case1.ini"))
        assert cfg.numerics.seed == 7
        rng = np.random.default_rng(7)
        for target in cfg.targets:
            np.testing.assert_array_equal(target, smooth_unit_field(64, rng))
        text = (CONFIGS / "transport-case1.ini").read_text().replace(
            "seed = 7", "seed = 8")
        moved = load_config(write(tmp_path, "s.ini", text))
        assert not np.array_equal(moved.targets[0], cfg.targets[0])

    def test_negative_k0_certifies_as_its_magnitude(self, tmp_path, monkeypatch):
        # |k0 sin v| is k0-Lipschitz and bounded by |k0| for either sign;
        # k0 < 0 used to escape as a traceback from the declared constants
        reports = []
        for k0 in ("0.05", "-0.05"):
            out = tmp_path / k0
            monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
            parser.read(CONFIGS / "transport-case1.ini")
            parser["problem"]["k0"] = k0
            path = tmp_path / f"k0{k0}.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            assert main(["certify", str(path), "--no-timing"]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["certificate"] == reports[1]["certificate"]

    @pytest.mark.parametrize("key", ["phi0", "impulse", "targets"])
    def test_empty_linear_key_is_its_default(self, tmp_path, key):
        # an empty value is the key's default, as on every other key: a
        # zero phi0, the theta_x impulse and random targets
        text = (CONFIGS / "linear-2d.ini").read_text()
        line = next(s for s in text.splitlines() if s.startswith(f"{key} ="))
        empty = load_config(write(tmp_path, "e.ini", text.replace(line, f"{key} =")))
        unset = load_config(write(tmp_path, "u.ini", text.replace(line + "\n", "")))
        np.testing.assert_array_equal(empty.problem.phi0(), unset.problem.phi0())
        np.testing.assert_array_equal(empty.targets, unset.targets)
        assert main(["certify", write(tmp_path, "e.ini", text.replace(
            line, f"{key} =").replace("out/linear", str(tmp_path / "o")))]) == 0

    @pytest.mark.parametrize("config, rows, shape", [
        ("linear-2d", "1 0 0; 0 1 0", "2 of length 3"),
        ("linear-2d", "1 0; 0 1; 1 1", "3 of length 2"),
        ("transport-case1", "; ".join(["1" + " 0" * 63] * 3), "3 of length 64"),
        ("transport-case2", "1 0; 0 1", "2 of length 2"),
    ], ids=["linear-length", "linear-count", "preset-count", "preset-length"])
    def test_target_shape_is_named(self, tmp_path, capsys, config, rows, shape):
        # one reader for both kinds: the message names the shape it needs
        # and the shape it got
        text = (CONFIGS / f"{config}.ini").read_text()
        path = write(tmp_path, "t.ini", text.replace("targets = random",
                                                     f"targets = {rows}"))
        need = "2 rows of length " + ("2" if config == "linear-2d" else "64")
        message = (f"problem.targets: need {need}, one per control window, "
                   f"got {shape}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(path)
        assert main(["certify", path]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_explicit_targets(self, tmp_path):
        text = LINEAR_CFG.replace("targets = random",
                                  "targets = 1 0; 0 1")
        cfg = load_config(write(tmp_path, "g.ini", text.format(out=tmp_path)))
        np.testing.assert_array_equal(cfg.targets[0], [1.0, 0.0])
        np.testing.assert_array_equal(cfg.targets[1], [0.0, 1.0])


class TestCommands:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", write(tmp_path, "a.ini",
                                    PRESET_CFG.format(out=out)), "--no-timing"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "solve"
        assert report["solve"]["converged"] is True
        assert report["targets"]["totally_controllable"] is True
        assert "timings" not in report
        assert (out / "trajectory.csv").exists()
        assert (out / "control.csv").exists()
        assert "totally controllable: True" in capsys.readouterr().out

    def test_certify_only(self, tmp_path):
        out = tmp_path / "out"
        code = main(["certify", write(tmp_path, "a.ini",
                                      PRESET_CFG.format(out=out)),
                     "--no-timing"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "solve" not in report
        assert report["certificate"]["contracts"] in (True, False)
        assert len(report["certificate"]["gramian_floors"]) == 2

    @pytest.mark.parametrize("preset", ["linear-2d", "transport-case1",
                                        "transport-case2"])
    def test_certify_and_solve_report_one_preparation(self, tmp_path,
                                                      monkeypatch, preset):
        reports = {}
        for command in ("certify", "solve"):
            out = tmp_path / command
            monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
            assert main([command, str(CONFIGS / f"{preset}.ini"),
                         "--no-timing"]) == 0
            reports[command] = json.loads((out / "report.json").read_text())
        assert reports["certify"]["certificate"] == reports["solve"]["certificate"]

    def test_oracle_command_linear(self, tmp_path):
        out = tmp_path / "out"
        code = main(["oracle", write(tmp_path, "b.ini",
                                     LINEAR_CFG.format(out=out)),
                     "--no-timing"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["oracle"]["sup_distance"] <= 1e-6
        assert (out / "oracle.csv").exists()

    def test_oracle_rejects_nonlinear(self, tmp_path):
        out = tmp_path / "out"
        code = main(["oracle", write(tmp_path, "a.ini",
                                     PRESET_CFG.format(out=out))])
        assert code == 2

    def test_timings_present_by_default(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", write(tmp_path, "a.ini",
                                    PRESET_CFG.format(out=out))])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "solve_s" in report["timings"]
        assert report["timings"]["emit_s"] > 0.0

    def test_no_timing_output_is_byte_identical(self, tmp_path, monkeypatch):
        # the emission time goes into the report only when timings are on;
        # the update and the window solves of every sweep, in order, go in
        # always: on Case 1 each sweep's, the last an exact 0.0 from the
        # sweep that kept both windows, the final update; on the linear run
        # the one sweep's, its final update 0.0 standing for the sweep it
        # skips
        linear = write(tmp_path, "b.ini", LINEAR_CFG.format(out=tmp_path / "o"))
        for command, ini in (("oracle", linear),
                             ("solve", str(CONFIGS / "transport-case1.ini"))):
            outs = [tmp_path / command / "a", tmp_path / command / "b"]
            for out in outs:
                monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
                assert main([command, ini, "--no-timing"]) == 0
            names = ["report.json", "trajectory.csv", "control.csv"]
            for name in names + (["oracle.csv"] if command == "oracle" else []):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            text = (outs[0] / "report.json").read_text()
            assert "emit_s" not in text
            report = json.loads(text)
            assert report["schema"] == "evosteer-report/3"
            assert report["seed"] == (3 if command == "oracle" else 7)
            # one copy of each number: the floors only in the certificate,
            # the window defects only in the solve
            assert list(report) == ["schema", "command", "seed", "config",
                                    "certificate", "solve", "targets"] + (
                                        ["oracle"] if command == "oracle" else [])
            assert list(report["certificate"]) == [
                "variant", "delay_ratio", "semigroup_bound", "control_op_norm",
                "gramian_floors", "contraction_constant", "binding_branch",
                "ball_radius", "solution_bound", "control_bounds",
                "kernel_mass", "contracts"]
            solve = report["solve"]
            assert list(solve) == [
                "converged", "iterations", "final_update", "path_sup",
                "within_ball", "updates", "measured_ratio", "per_window_defect",
                "control_sup", "frozen_forcing_rows", "window_solves",
                "window_solves_per_sweep"]
            assert list(report["targets"]) == [
                "tol", "hits", "totally_controllable", "exactly_controllable"]
            assert solve["within_ball"] == (
                solve["path_sup"] <= report["certificate"]["ball_radius"]) is True
            updates, solves = solve["updates"], solve["window_solves_per_sweep"]
            assert len(updates) == solve["iterations"] and updates[0] > 0.0
            assert sum(solves) == solve["window_solves"]
            if command == "oracle":
                assert (len(updates), solve["final_update"], solves) == (1, 0.0, [2])
            else:
                assert solves == [2, 0]
                assert updates[-1] == solve["final_update"] == 0.0 < updates[-2]
                assert solve["measured_ratio"] == max(
                    b / a for a, b in zip(updates, updates[1:]))

    @pytest.mark.parametrize("preset, frozen, solves", [
        # every forcing row lies at t <= beta = b: Case 1's eta rows on the
        # 301 + 501 control-window nodes, Case 2's q rows on all 301 + 201 +
        # 501 kernel nodes
        # Case 1's first sweep lands window 0's nonlocal start and its
        # second keeps both windows, window 1's start having moved by
        # round-off only; Case 2's start stays phi(0), so its one sweep
        # solves both windows: each window is solved once
        ("transport-case1", 802, lambda it: 2),
        ("transport-case2", 1003, lambda it: 2)])
    def test_solve_reports_frozen_rows_and_window_solves(self, tmp_path,
                                                         monkeypatch, preset,
                                                         frozen, solves):
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
            assert main(["solve", str(CONFIGS / f"{preset}.ini"),
                         "--no-timing"]) == 0
            texts.append((out / "report.json").read_text())
        assert texts[0] == texts[1]
        solve = json.loads(texts[0])["solve"]
        assert solve["frozen_forcing_rows"] == frozen
        assert solve["window_solves"] == solves(solve["iterations"])
        assert solve["iterations"] == (2 if preset == "transport-case1" else 1)

    @pytest.mark.parametrize("preset, nodes, iterations", [
        # Case 1's eta rows on the 151 + 251 control-window nodes, Case 2's
        # q rows on all 151 + 101 + 251 kernel nodes; 126 of either lie at
        # t <= beta = 0.25.  From the straight-line first iterate Case 1
        # takes 5 sweeps and Case 2 4
        ("transport-case1", 402, 5), ("transport-case2", 503, 4)])
    def test_solve_with_live_forcing_rows(self, tmp_path, monkeypatch, preset,
                                          nodes, iterations):
        # the presets at N = 16, beta = 0.25, step 2e-3: the forcing rows
        # past beta read the path each sweep, end to end through the CLI,
        # and two runs write the same bytes
        text = (CONFIGS / f"{preset}.ini").read_text()
        for old, new in (("n = 64\n", "n = 16\n"), ("beta = 1.0\n", "beta = 0.25\n"),
                         ("time_step = 1e-3\n", "time_step = 2e-3\n"),
                         ("history_samples = 128\n", "history_samples = 48\n")):
            assert old in text
            text = text.replace(old, new)
        ini = write(tmp_path, "live.ini", text)
        cfg = load_config(ini)
        assert len(Sweep(cfg.problem, cfg.numerics)._nodes) == nodes
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
            assert main(["solve", ini, "--no-timing"]) == 0
        for name in ("report.json", "trajectory.csv", "control.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        solve = json.loads((outs[0] / "report.json").read_text())["solve"]
        assert solve["converged"]
        assert solve["frozen_forcing_rows"] == 126 < nodes
        assert solve["iterations"] == iterations

    @pytest.mark.parametrize("preset, edit, code, frozen", [
        ("linear-2d", None, 0, 1602),
        ("transport-case2", None, 0, 1003),
        # window 1's 801 forcing rows are live, but no forcing reads the path
        ("linear-2d", ("beta = 1.0", "beta = 0.5"), 0, 801),
        # nu moves window 0's start every sweep
        ("transport-case1", None, 4, None)])
    def test_one_sweep_stops_where_the_next_would_read_the_same_bits(
            self, tmp_path, capsys, monkeypatch, preset, edit, code, frozen):
        # with no forcing row reading the path and no nonlocal term, the
        # first sweep's path is the fixed point bit for bit: the solve stops
        # after it with an update of exactly 0, within max_iter = 1
        text = (CONFIGS / f"{preset}.ini").read_text()
        text = text.replace("max_iter = 200\n", "").replace(
            "[numerics]\n", "[numerics]\nmax_iter = 1\n")
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "out"
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        assert main(["solve", write(tmp_path, "a.ini", text), "--no-timing"]) == code
        captured = capsys.readouterr()
        if code == 0:
            solve = json.loads((out / "report.json").read_text())["solve"]
            assert (solve["iterations"], solve["final_update"],
                    solve["measured_ratio"]) == (1, 0.0, 0.0)
            assert solve["frozen_forcing_rows"] == frozen
            assert "converged in 1 iteration;" in captured.out
        else:
            assert "no convergence after 1 iteration (" in captured.err

    def test_unconverged_solve_still_writes_its_report(self, tmp_path, capsys,
                                                       monkeypatch):
        # the certificate and the solve's last update are written; the
        # verdict and the CSV files are not
        text = (CONFIGS / "transport-case1.ini").read_text().replace(
            "max_iter = 200", "max_iter = 1")
        path = write(tmp_path, "a.ini", text)
        out = tmp_path / "out"
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        reports = []
        for _ in range(2):
            assert main(["solve", path, "--no-timing"]) == 4
            err = capsys.readouterr().err
            assert err.startswith("solver error: no convergence after 1 iteration (")
            assert err.count("\n") == 1
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert sorted(os.listdir(out)) == ["report.json"]
        report = json.loads(reports[0])
        assert list(report) == ["schema", "command", "seed", "config",
                                "certificate", "solve"]
        assert report["config"]["numerics"]["max_iter"] == "1"
        solve = report["solve"]
        assert (solve["converged"], solve["iterations"]) == (False, 1)
        assert solve["final_update"] > 0.0
        assert solve["measured_ratio"] == 0.0
        assert len(report["certificate"]["gramian_floors"]) == 2
        assert solve["within_ball"] is True
        assert main(["solve", path]) == 4
        assert "solve_s" in json.loads((out / "report.json").read_text())["timings"]

    def test_freed_memory_is_released_after_each_command(self, tmp_path, capsys,
                                                          monkeypatch):
        # a process running several commands starts each on a trimmed heap,
        # whether the command succeeded or failed
        cli._release_freed_memory()
        calls = []
        monkeypatch.setattr(cli, "_release_freed_memory", lambda: calls.append(1))
        ok = write(tmp_path, "a.ini", LINEAR_CFG.format(out=tmp_path / "a"))
        assert main(["oracle", ok, "--no-timing"]) == 0
        assert calls == [1]
        nonlinear = write(tmp_path, "b.ini", PRESET_CFG.format(out=tmp_path / "b"))
        assert main(["oracle", nonlinear]) == 2
        assert "requires a problem linear" in capsys.readouterr().err
        assert calls == [1, 1]

    def test_malloc_trim_is_looked_up_once(self, monkeypatch):
        # loading the C library's handle costs more than the trim itself;
        # the arena cap goes through the same handle
        import ctypes
        loads = []
        load = ctypes.CDLL

        def counting(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        cli._libc.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", counting)
        try:
            for _ in range(3):
                cli._release_freed_memory()
            cli._single_arena.__wrapped__()
        finally:
            cli._libc.cache_clear()
        assert loads == [(None,)]

    def test_one_parser_serves_every_command(self, tmp_path, capsys, monkeypatch):
        # a process running several commands builds its argument parser
        # once, and each command keeps its own exit code and message
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        ok = write(tmp_path, "a.ini", PRESET_CFG.format(out=tmp_path / "a"))
        bad = write(tmp_path, "b.ini", PRESET_CFG.replace("n = 12", "n = 12\nbeta = -1")
                    .format(out=tmp_path / "b"))
        try:
            assert main(["solve", ok, "--no-timing"]) == 0
            assert "totally controllable: True" in capsys.readouterr().out
            assert main(["certify", ok, "--no-timing"]) == 0
            assert "contraction constant" in capsys.readouterr().out
            assert main(["solve", bad]) == 2
            assert capsys.readouterr().err.startswith("config error: ")
            with pytest.raises(SystemExit) as usage:
                main(["solve"])
            assert usage.value.code == 2
        finally:
            cli._parser.cache_clear()
        assert built.count("evosteer") == 1

    @pytest.mark.parametrize("blocked", ["file/out", "report.json", "trajectory.csv"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, blocked):
        # an output directory below a regular file, or an output path that
        # is a directory, is reported on one line naming the path: exit 1
        # means targets missed
        (tmp_path / "file").write_text("")
        out = tmp_path / ("file/out" if blocked == "file/out" else "out")
        if blocked != "file/out":
            (out / blocked).mkdir(parents=True)
        ini = write(tmp_path, "a.ini", LINEAR_CFG.format(out=out))
        assert main(["solve", ini, "--no-timing"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error: ")
        assert str(out if blocked == "file/out" else out / blocked) in err[0]

    @pytest.mark.parametrize("blocked", ["trajectory.csv", "control.csv"])
    def test_unwritable_file_of_a_threaded_solve_exits_2(
            self, tmp_path, capsys, monkeypatch, blocked):
        # the shipped Case-1 preset writes control.csv on the worker: a
        # blocked file of either thread is named on the one line of a
        # serial run, and no worker outlives the command
        threads = threading.active_count()
        workers = worker_threads(monkeypatch)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        assert main(["solve", str(CONFIGS / "transport-case1.ini"), "--no-timing"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error: cannot write ")
        assert str(out / blocked) in err[0]
        assert workers == ["evosteer-emit"]
        assert threading.active_count() == threads
        assert not (out / "report.json").exists()

    def test_threaded_solve_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        # two threaded --no-timing runs and a serial one write the same
        # bytes, and every worker is joined when the command returns
        ini = str(CONFIGS / "transport-case1.ini")
        threads = threading.active_count()
        workers = worker_threads(monkeypatch)
        outs = [tmp_path / name for name in ("a", "b", "serial")]
        for out in outs:
            if out.name == "serial":
                monkeypatch.setattr(cli, "CHUNK_VALUES", 10 ** 12)
            monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
            assert main(["solve", ini, "--no-timing"]) == 0
            assert threading.active_count() == threads
        assert workers == ["evosteer-emit"] * 2
        for name in ("trajectory.csv", "control.csv", "report.json"):
            assert len({(out / name).read_bytes() for out in outs}) == 1, name

    def test_selftest_keeps_its_own_output_directory(self, tmp_path, capsys,
                                                     monkeypatch):
        # the CLI criterion's configs name their own directory: under the
        # variable it used to write there, read a report.json it never
        # wrote and end in a traceback
        out = tmp_path / "out"
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(out))
        assert main(["selftest", "--criterion", "criterion-10"]) == 0
        assert "[PASS] criterion-10-cli-contract" in capsys.readouterr().out
        assert not out.exists()
        assert os.environ["EVOSTEER_OUTDIR"] == str(out)

    def test_unknown_selftest_criterion_exits_2(self, capsys):
        from evosteer.acceptance import CRITERIA
        assert main(["selftest", "--criterion", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and "'nosuch'" in err[0]
        assert all(name in err[0] for name, _, _ in CRITERIA)

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_dev_mode_run_is_clean(self, tmp_path, command):
        # under -X dev -W error an unclosed file or a deprecation on the
        # command's path is an error on stderr
        env = dict(os.environ, EVOSTEER_OUTDIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m",
                               "evosteer", command, str(CONFIGS / "linear-2d.ini"),
                               "--no-timing"], env=env, capture_output=True,
                              text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "report.json").exists()

    def test_runs_leave_scipy_unimported(self, tmp_path):
        # scipy costs about 0.2 s, 28 MiB and a second BLAS thread pool to
        # import; the package runs on numpy alone, scipy is a test reference
        script = (
            "import sys\n"
            "from evosteer.cli import main\n"
            f"assert main(['solve', '--no-timing', {str(CONFIGS / 'transport-case2.ini')!r}]) == 0\n"
            f"assert main(['certify', '--no-timing', {str(CONFIGS / 'transport-case1.ini')!r}]) == 0\n"
            f"assert main(['oracle', '--no-timing', {str(CONFIGS / 'linear-2d.ini')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = dict(os.environ, EVOSTEER_OUTDIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


def csv_reference(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def trajectory_reference(traj) -> bytes:
    """The trajectory CSV as csv.writer writes it, one %.17g per value."""
    def fmt(v):
        return "%.17g" % float(v)

    header = ["t", "kind", "side"] + [f"x{i}" for i in range(traj.dim)]
    htimes = traj.history_times()
    rows = [[fmt(t), "history", "L" if i == len(htimes) - 1 else "-"]
            + [fmt(v) for v in traj.history[i]]
            for i, t in enumerate(htimes)]
    for k, (a, end, kind, j) in enumerate(traj.mesh.intervals()):
        times, vals = traj.seg_times[k], traj.seg_values[k]
        for i, t in enumerate(times):
            side = "R" if i == 0 else "L" if i == len(times) - 1 else "-"
            rows.append([fmt(t), kind, side] + [fmt(v) for v in vals[i]])
    return csv_reference(header, rows)


def control_reference(control) -> bytes:
    """The control CSV as csv.writer writes it, one %.17g per value."""
    mu = control.samples[0].shape[1]
    return csv_reference(
        ["t", "window"] + [f"u{i}" for i in range(mu)],
        [["%.17g" % t, str(j)] + ["%.17g" % v for v in u]
         for j, (times, U) in enumerate(zip(control.window_times, control.samples))
         for t, u in zip(times, U)])


# Rows per block: None keeps CHUNK_VALUES (each test file is one block
# across all its intervals), 1 puts a boundary before every row, 7 and 20
# put boundaries inside intervals and blocks across interval ends, and 16
# starts a block at the history's L row of both test runs (129 and 33
# history rows).
CHUNK_ROWS = [None, 1, 7, 16, 20]


CHUNK_VALUES = reports.CHUNK_VALUES


def set_chunk_rows(monkeypatch, rows, width):
    """Chunks of ``rows`` rows of ``width`` values; None: the module's own."""
    monkeypatch.setattr(reports, "CHUNK_VALUES",
                        CHUNK_VALUES if rows is None else rows * width)


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linear")
    cfg = load_config(write(tmp, "b.ini", LINEAR_CFG.format(out=tmp / "o")))
    return run(cfg.problem, cfg.targets, cfg.numerics, with_oracle=True)


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("preset")
    cfg = load_config(write(tmp, "a.ini", PRESET_CFG.format(out=tmp / "o")))
    return run(cfg.problem, cfg.targets, cfg.numerics)


class TestCsvRoundTrip:
    def test_trajectory_roundtrip_and_sides(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.ini",
                                PRESET_CFG.format(out=tmp_path / "o")))
        result = run(cfg.problem, cfg.targets, cfg.numerics)
        path = str(tmp_path / "traj.csv")
        emit_trajectory(result.solve.trajectory, path)
        data = read_trajectory_csv(path)
        pc_file = path_sup_norm_from_csv(data, weight=cfg.problem.state_weight)
        assert abs(pc_file - path_sup_norm(result.solve.trajectory)) <= 1e-12
        # the solve's path_sup is the solved path's sup norm, bit for bit
        assert result.solve.path_sup == path_sup_norm(result.solve.trajectory)
        # both one-sided rows exist at the interior breakpoints
        for bp in (0.3, 0.5):
            sides = {data["sides"][i] for i, t in enumerate(data["times"])
                     if t == bp}
            assert {"L", "R"} <= sides

    def test_small_csv_shape(self, tmp_path):
        cfg = load_config(write(tmp_path, "b.ini",
                                LINEAR_CFG.format(out=tmp_path / "o")))
        result = run(cfg.problem, cfg.targets, cfg.numerics)
        path = str(tmp_path / "traj.csv")
        emit_trajectory(result.solve.trajectory, path)
        with open(path) as fh:
            assert fh.readline().strip() == "t,kind,side,x0,x1"
        cpath = str(tmp_path / "ctrl.csv")
        emit_control(result.solve.control, cpath)
        with open(cpath) as fh:
            assert fh.readline().strip() == "t,window,u0,u1"

    def test_csv_bytes_match_csv_writer(self, linear_run, tmp_path, monkeypatch):
        solve, oracle = linear_run.solve, linear_run.oracle.trajectory
        traj, control = solve.trajectory, solve.control
        for rows in CHUNK_ROWS:
            for name, tr in (("traj.csv", traj), ("oracle.csv", oracle)):
                path = tmp_path / name
                set_chunk_rows(monkeypatch, rows, 1 + tr.dim)
                emit_trajectory(tr, str(path))
                data = path.read_bytes()
                assert data == trajectory_reference(tr), (name, rows)
                lines = data.split(b"\r\n")
                assert lines[0] == b"t,kind,side,x0,x1"
                assert lines[-1] == b"" and b"\n" not in b"".join(lines)
                assert {line.split(b",")[2] for line in lines[1:-1]} == {b"L", b"R", b"-"}
                assert {line.split(b",")[1] for line in lines[1:-1]} == {
                    b"history", b"control", b"impulse"}
            path = tmp_path / "ctrl.csv"
            set_chunk_rows(monkeypatch, rows, 3)
            emit_control(control, str(path))
            assert path.read_bytes() == control_reference(control), rows

    def test_transport_rows_across_chunks(self, preset_run, tmp_path, monkeypatch):
        # the command's data flow: the two files of one run, one call each
        traj, control = preset_run.solve.trajectory, preset_run.solve.control
        assert len(traj.history_times()) % 16 == 1
        for rows in CHUNK_ROWS:
            set_chunk_rows(monkeypatch, rows, 1 + traj.dim)
            emit_trajectory(traj, str(tmp_path / "t.csv"))
            assert (tmp_path / "t.csv").read_bytes() == trajectory_reference(traj), rows
            set_chunk_rows(monkeypatch, rows, 1 + control.samples[0].shape[1])
            emit_control(control, str(tmp_path / "c.csv"))
            assert (tmp_path / "c.csv").read_bytes() == control_reference(control), rows


def worker_threads(monkeypatch) -> list:
    """The names of the threads that write control.csv from now on, other
    than the main thread."""
    names = []
    emit = cli.emit_control

    def recording(*args):
        if threading.current_thread() is not threading.main_thread():
            names.append(threading.current_thread().name)
        return emit(*args)

    monkeypatch.setattr(cli, "emit_control", recording)
    return names


def synthetic_path(steps: int, dim: int):
    """A random path and control on the mesh 0 0.3 0.5 1, ``steps`` steps
    per unit time, every value drawn at full precision."""
    rng = np.random.default_rng(5)
    mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
    seg_times = [np.linspace(a, end, round(steps * (end - a)) + 1)
                 for a, end, _, _ in mesh.intervals()]
    traj = PiecewiseTrajectory(mesh, 1.0, rng.normal(size=(129, dim)), seg_times,
                               [rng.normal(size=(len(t), dim)) for t in seg_times])
    control = ControlSignal(problem=None, window_times=[seg_times[0], seg_times[2]],
                            samples=[rng.normal(size=(len(seg_times[k]), dim))
                                     for k in (0, 2)],
                            preimages=[])
    return traj, control


def test_emission_memory_is_bounded_by_the_chunk(tmp_path):
    # Per value of a block the writer holds the file's word matrix (its
    # 32-byte text slot and a share of the rows' literal words) and value
    # matrix, with a formatting pass's temporaries or a pass's NUL mask and
    # compacted text (a pass is half a block): about 83 bytes at 4,000 and
    # 16,000 steps, for either file.  The transient memory beyond what was
    # retained before stays under 96 bytes per chunk value at both
    # resolutions, while at the finer one each file is larger than that
    # bound.
    bound = 96 * reports.CHUNK_VALUES
    for steps in (4000, 16000):
        traj, control = synthetic_path(steps, 32)
        tracemalloc.start()
        try:
            emit_control(control, str(tmp_path / "c.csv"))
            retained, peak = tracemalloc.get_traced_memory()
            assert peak - retained <= bound
            tracemalloc.reset_peak()
            emit_trajectory(traj, str(tmp_path / "t.csv"))
            assert tracemalloc.get_traced_memory()[1] - retained <= bound
        finally:
            tracemalloc.stop()
    assert (tmp_path / "c.csv").stat().st_size > bound
    assert (tmp_path / "t.csv").stat().st_size > bound


def test_concurrent_emission_memory_is_bounded_by_two_chunks(tmp_path, monkeypatch):
    # the trajectory and the control written beside it on the worker each
    # hold at most one writer's 96 bytes per chunk value at any time
    traj, control = synthetic_path(16000, 32)
    workers = worker_threads(monkeypatch)
    tracemalloc.start()
    try:
        retained = tracemalloc.get_traced_memory()[0]
        cli._emit_csv(str(tmp_path), traj, control)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert workers == ["evosteer-emit"]
    assert peak - retained <= 2 * 96 * reports.CHUNK_VALUES
    for name in ("trajectory.csv", "control.csv"):
        assert (tmp_path / name).stat().st_size > 96 * reports.CHUNK_VALUES
