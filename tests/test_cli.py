import json

import numpy as np
import pytest

from evosteer.cli import main
from evosteer.config import ConfigError, load_config
from evosteer.core import path_sup_norm
from evosteer.reports import (emit_control, emit_trajectory,
                              path_sup_norm_from_csv, read_trajectory_csv)
from evosteer.runner import run

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
        assert cfg.problem.constants.semigroup_bound >= 1.0

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

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

    @pytest.mark.parametrize("line", ["time_stpe = 1e-5", "quad_steps = 10"])
    def test_unknown_numerics_key_named(self, tmp_path, capsys, line):
        bad = PRESET_CFG.replace("time_step = 5e-3", "time_step = 5e-3\n" + line)
        path = write(tmp_path, "h.ini", bad.format(out=tmp_path / "o"))
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"numerics.{key}: unknown key"):
            load_config(path)
        assert main(["solve", path]) == 2
        assert f"numerics.{key}" in capsys.readouterr().err

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
        assert len(report["gramians"]["min_eig"]) == 2

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


class TestCsvRoundTrip:
    def test_trajectory_roundtrip_and_sides(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.ini",
                                PRESET_CFG.format(out=tmp_path / "o")))
        result = run(cfg.problem, cfg.targets, cfg.numerics)
        path = str(tmp_path / "traj.csv")
        emit_trajectory(result.solve.trajectory, result.solve.control, path)
        data = read_trajectory_csv(path)
        pc_file = path_sup_norm_from_csv(data, weight=cfg.problem.state_weight)
        assert abs(pc_file - path_sup_norm(result.solve.trajectory)) <= 1e-12
        # both one-sided rows exist at the interior breakpoints
        for bp in (0.3, 0.5):
            sides = {data["sides"][i] for i, t in enumerate(data["times"])
                     if t == bp}
            assert {"L", "R"} <= sides
        # control columns vanish on impulse rows
        imp = [i for i, k in enumerate(data["kinds"]) if k == "impulse"]
        assert np.all(data["controls"][imp] == 0.0)

    def test_small_csv_shape(self, tmp_path):
        cfg = load_config(write(tmp_path, "b.ini",
                                LINEAR_CFG.format(out=tmp_path / "o")))
        result = run(cfg.problem, cfg.targets, cfg.numerics)
        path = str(tmp_path / "traj.csv")
        emit_trajectory(result.solve.trajectory, result.solve.control, path)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["t", "kind", "side"]
        assert header[3:5] == ["x0", "x1"]
        assert header[5:] == ["u0", "u1"]
        cpath = str(tmp_path / "ctrl.csv")
        emit_control(result.solve.control, cpath)
        with open(cpath) as fh:
            assert fh.readline().strip() == "t,window,u0,u1"
