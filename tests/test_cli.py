"""Command-line surface: config validation, exit codes, artifact formats,
and determinism."""

import json
import math

import numpy as np
import pytest

from interfrac.cli import main

POINT_CFG = {
    "material": {"mu1": 1.0, "mu2": 1.0, "kappa": 0.5},
    "load": {"kind": "point-triple", "F": 1.0, "a": 1.0, "b": 0.75},
    "numerics": {"rel_tol": 1e-8, "abs_tol": 1e-12},
}

MAP_CFG = {
    "material": {"mu1": 3.0, "mu2": 1.0, "kappa": 0.25},
    "load": {"kind": "smooth-exponential"},
    "inclusion": {"d": 1.0, "phi": 1.5707963, "alpha": 0.0,
                  "ell_a": 0.2, "ell_b": 0.1, "nu_star": 5.0},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSigma0Command:
    def test_json_output(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "out.json"
        assert main(["sigma0", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kappa_star"] == pytest.approx(1.0)
        assert payload["mu0"] == pytest.approx(4.0)
        assert payload["sigma0"] == pytest.approx(1.1644302, rel=1e-5)
        assert payload["config"]["load"]["b"] == 0.75

    def test_invalid_kappa_exit_2(self, tmp_path, capsys):
        bad = dict(POINT_CFG, material={"mu1": 1.0, "mu2": 1.0, "kappa": -1.0})
        cfg = write_cfg(tmp_path, bad)
        assert main(["sigma0", "--config", cfg]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_missing_field_exit_2(self, tmp_path, capsys):
        bad = {"material": {"mu1": 1.0, "kappa": 1.0}}
        cfg = write_cfg(tmp_path, bad)
        assert main(["sigma0", "--config", cfg]) == 2
        assert "mu2" in capsys.readouterr().err

    def test_zero_force(self, tmp_path):
        cfg_data = dict(POINT_CFG, load={"kind": "point-triple", "F": 0.0,
                                         "a": 1.0, "b": 0.75})
        cfg = write_cfg(tmp_path, cfg_data)
        out = tmp_path / "o.json"
        assert main(["sigma0", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["sigma0"] == pytest.approx(0.0, abs=1e-12)

    def test_unreadable_config_exit_2(self, tmp_path):
        assert main(["sigma0", "--config", str(tmp_path / "nope.json")]) == 2

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "s.csv"
        assert main(["sigma0", "--config", cfg, "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "kappa_star,mu_star,mu0,sigma0,est_error"
        assert len(lines) == 3
        assert float(lines[2].split(",")[3]) == pytest.approx(1.1644302, rel=1e-5)


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--axis", "kappa_star",
                     "--from", "1e-2", "--to", "1e2", "--points", "9",
                     "--log", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "kappa_star,mu_star,b,sigma0,est_error"
        assert len(lines) == 2 + 9
        meta = json.loads(lines[0][2:])
        assert meta["axis"] == "kappa_star"

    def test_deterministic_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", cfg, "--axis", "mu_star",
                "--from", "-0.5", "--to", "0.5", "--points", "3"]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_mu_star_sweep_collapse_toward_rigid(self, tmp_path):
        # sigma0 for b = 3/4 and b = 1/4 converge as mu* -> -1
        rows = {}
        for b in (0.75, 0.25):
            cfg_data = dict(POINT_CFG, load={"kind": "point-triple", "F": 1.0,
                                             "a": 1.0, "b": b})
            cfg = write_cfg(tmp_path, cfg_data, name=f"c{b}.json")
            out = tmp_path / f"m{b}.csv"
            main(["sweep", "--config", cfg, "--axis", "mu_star",
                  "--from", "-0.99", "--to", "0.0", "--points", "2",
                  "--out", str(out)])
            lines = out.read_text().strip().split("\n")[2:]
            rows[b] = [float(line.split(",")[3]) for line in lines]
        near, far = rows[0.75][0], rows[0.25][0]       # mu* = -0.99
        wide = abs(rows[0.75][1] - rows[0.25][1])      # mu* = 0
        assert abs(near - far) / abs(near) < 0.02
        assert abs(near - far) < wide                  # the curves meet at -1

    def test_bad_range_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        assert main(["sweep", "--config", cfg, "--axis", "kappa_star",
                     "--from", "10", "--to", "1", "--points", "5"]) == 2


class TestRatioCommand:
    def test_identical_pairs_all_ones(self, tmp_path):
        cfg_data = dict(POINT_CFG, ratio={"mu_star_1": 0.3, "mu_star_2": 0.3})
        cfg = write_cfg(tmp_path, cfg_data)
        out = tmp_path / "r.csv"
        assert main(["ratio", "--config", cfg, "--from", "0.1", "--to", "1.0",
                     "--points", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "kappa_star,r"
        for line in lines[2:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "r2.csv"
        assert main(["ratio", "--config", cfg, "--from", "0.01", "--to", "0.01",
                     "--points", "1", "--mu-star-2", "0.5",
                     "--out", str(out)]) == 0
        r = float(out.read_text().strip().split("\n")[-1].split(",")[1])
        assert abs(r - 1.0) < 0.05

    def test_missing_mu_star_2_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        assert main(["ratio", "--config", cfg, "--from", "0.1", "--to", "1",
                     "--points", "2"]) == 2


class TestMapCommand:
    def test_grid_and_formats(self, tmp_path):
        cfg = write_cfg(tmp_path, MAP_CFG)
        out = tmp_path / "map.csv"
        pgm = tmp_path / "map.pgm"
        assert main(["map", "--config", cfg, "--phi-steps", "3",
                     "--alpha-steps", "2", "--out", str(out),
                     "--pgm", str(pgm)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "phi_deg,alpha_deg,delta_sigma0,sign"
        assert len(lines) == 2 + 3 * 2
        signs = {line.split(",")[3] for line in lines[2:]}
        assert signs <= {"shielding", "neutral", "amplifying"}
        pgm_lines = pgm.read_text().strip().split("\n")
        assert pgm_lines[0] == "P2"
        assert pgm_lines[1] == "2 3"

    def test_kernel_residual_table(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "res.csv"
        assert main(["kernel-residual", "--config", cfg, "--points", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "xi,residual"
        assert all(float(l.split(",")[1]) < 1e-6 for l in lines[2:])

    def test_field_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", cfg, "--at", "0.5,0.8",
                     "--at", "0.0,-1.0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "x,y,u,gx,gy"
        assert len(lines) == 4

    @pytest.mark.parametrize("at", ["0.5,nan", "1,inf", "inf,1", "0.5,0"])
    def test_field_bad_position_exit_2(self, tmp_path, capsys, at):
        cfg = write_cfg(tmp_path, POINT_CFG)
        assert main(["field", "--config", cfg, "--at", at]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_alpha_period_duplication(self, tmp_path):
        # alpha and alpha + pi give identical delta columns
        cfg = write_cfg(tmp_path, MAP_CFG)
        out = tmp_path / "map2.csv"
        assert main(["map", "--config", cfg, "--phi-steps", "2",
                     "--alpha-steps", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[2:]
        deltas = np.array([float(l.split(",")[2]) for l in lines]).reshape(2, 2)
        alphas = np.array([float(l.split(",")[1]) for l in lines]).reshape(2, 2)
        assert np.allclose(alphas[:, 1] - alphas[:, 0], 90.0)  # [0, pi) in two steps
        # compare against the same grid shifted by pi via a direct run
        from interfrac.perturbation import sign_map
        from interfrac.model import Bimaterial, smooth_exponential
        res = sign_map(smooth_exponential(), Bimaterial(3.0, 1.0, 0.25),
                       d=1.0, nu_star=5.0, e=0.5, ell_a=0.2,
                       phi_grid=np.radians([5.0, 175.0]),
                       alpha_grid=np.array([0.0, math.pi]))
        assert np.allclose(res.delta[:, 0], res.delta[:, 1], rtol=1e-8)
