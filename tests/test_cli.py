"""Command-line surface: config validation, exit codes, artifact formats,
and determinism."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def map_cfg(**inclusion):
    """MAP_CFG with the given inclusion keys replaced."""
    return dict(MAP_CFG, inclusion=dict(MAP_CFG["inclusion"], **inclusion))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def point_cfg_with_a(a):
    """POINT_CFG with the point triple's spacing a."""
    return dict(POINT_CFG, load=dict(POINT_CFG["load"], a=a))


def run_cli_process(tmp_path, command, cfg_data):
    """The CLI in a child process, so that its stderr is exactly what a
    user sees (pytest would capture numpy's warnings in this process)."""
    import interfrac
    cfg = write_cfg(tmp_path, cfg_data)
    argv = command.split()
    src = os.path.dirname(os.path.dirname(interfrac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "interfrac.cli", argv[0],
                           "--config", cfg] + argv[1:], capture_output=True,
                          text=True, env=env, timeout=120)


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

    @pytest.mark.parametrize("command,cfg_data", [
        ("sigma0", dict(POINT_CFG, numerics={"rel_tol": "abc"})),
        ("sigma0", dict(POINT_CFG, load={"kind": "point-triple", "F": "x",
                                         "a": 1.0, "b": 0.75})),
        ("sigma0", dict(POINT_CFG, numerics={"truncation_radius": math.inf})),
        ("sigma0", [POINT_CFG]),
        ("map", map_cfg(d="x")),
        ("sigma0", dict(POINT_CFG, material={"mu1": 1e308, "mu2": 1e308,
                                             "kappa": 0.5})),
        ("sigma0", dict(POINT_CFG, material={"mu1": 1e-200, "mu2": 1e-200,
                                             "kappa": 0.5})),
        ("sigma0", dict(POINT_CFG, load="point-triple")),
        ("sigma0", dict(POINT_CFG, load={"kind": "smooth-exponential",
                                         "a": -1})),
        ("sigma0", dict(POINT_CFG, load={"kind": "smooth-exponential",
                                         "a": 0})),
        ("sweep --axis kappa_star --from nan --to nan --points 1", POINT_CFG),
        ("sweep --axis kappa_star --from 1 --to inf --points 3", POINT_CFG),
        ("ratio --from nan --to nan --points 1 --mu-star-2 0.5", POINT_CFG),
        ("map", map_cfg(rigid="false")),
        ("map", map_cfg(nu_star=-1)),
        ("map", map_cfg(nu_star=0)),
        ("map", map_cfg(ell_b=-0.1)),
        ("map", map_cfg(ell_a=2, ell_b=1)),
        ("map --phi-steps -1", MAP_CFG),
        ("map --phi-steps 0", MAP_CFG),
        ("map --alpha-steps 0", MAP_CFG),
        ("kernel-residual --points 0", POINT_CFG),
        ("field --at 0.5,0.8 --min-angle nan", POINT_CFG),
    ], ids=["rel_tol_string", "F_string", "truncation_radius_inf",
            "top_level_array", "map_d_string", "mu0_overflow",
            "mu0_zero_division", "load_string", "smooth_a_negative",
            "smooth_a_zero", "sweep_nan", "sweep_to_inf", "ratio_nan",
            "rigid_string", "nu_star_negative", "nu_star_zero",
            "ell_b_negative", "epsilon_above_1", "phi_steps_negative",
            "phi_steps_zero", "alpha_steps_zero", "residual_points_zero",
            "min_angle_nan"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, command, cfg_data):
        cfg = write_cfg(tmp_path, cfg_data)
        argv = command.split()
        assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path, POINT_CFG)
        out = tmp_path / "s.csv"
        assert main(["sigma0", "--config", cfg, "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "kappa_star,mu_star,mu0,sigma0,est_error"
        assert len(lines) == 3
        assert float(lines[2].split(",")[3]) == pytest.approx(1.1644302, rel=1e-5)


    @pytest.mark.parametrize("command,cfg_data", [
        ("sigma0", dict(POINT_CFG, load={"kind": "point-triple", "F": 1.0,
                                         "a": 1e300, "b": 0.75})),
        ("sigma0", dict(POINT_CFG, load={"kind": "smooth-exponential",
                                         "a": 1e-300})),
        ("sigma0", dict(POINT_CFG, numerics={"truncation_radius": 1e300})),
        ("sigma0", point_cfg_with_a(4.5e61)),
        ("map --phi-steps 1 --alpha-steps 1", map_cfg(d=1e200)),
        ("map --phi-steps 1 --alpha-steps 1", map_cfg(d=1e12)),
    ], ids=["point_a_huge", "smooth_a_tiny", "truncation_radius_huge",
            "point_a_4.5e61", "map_d_overflow", "map_d_past_reach"])
    def test_numerical_failure_one_line(self, tmp_path, command, cfg_data):
        # in a child process: pytest would capture the numpy warnings that
        # used to reach stderr here; d = 1e200 and d = 1e12 lie past the
        # reach of the phi^+ table behind grad_u0
        proc = run_cli_process(tmp_path, command, cfg_data)
        assert proc.returncode == 3
        err = proc.stderr.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("numerical failure:")

    def test_wide_point_triple_is_silent(self, tmp_path):
        # the oscillatory tail's Taylor stencil is solved in stencil units,
        # so a large spacing leaves no numpy warning on stderr
        proc = run_cli_process(tmp_path, "sigma0", point_cfg_with_a(1e30))
        assert proc.returncode == 0
        assert proc.stderr == ""


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

    @pytest.mark.parametrize("d", [0.1, 0.4, 1.3, 2.6])
    def test_guard_edge_rows(self, tmp_path, d):
        # (d cos 5deg, d sin 5deg) comes back from atan2 an ulp below 5 deg
        # at these distances; the guard lets rounding through
        cfg = write_cfg(tmp_path, dict(MAP_CFG, inclusion={"d": d}))
        out = tmp_path / "edge.csv"
        assert main(["map", "--config", cfg, "--phi-steps", "2",
                     "--alpha-steps", "1", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[2:]
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx([5.0, 175.0])

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
        from interfrac.model import (Bimaterial, InclusionSpec,
                                     smooth_exponential)
        res = sign_map(smooth_exponential(), Bimaterial(3.0, 1.0, 0.25),
                       InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0,
                                     ell_a=0.2, ell_b=0.1, nu_star=5.0),
                       phi_grid=np.radians([5.0, 175.0]),
                       alpha_grid=np.array([0.0, math.pi]))
        assert np.allclose(res.delta[:, 0], res.delta[:, 1], rtol=1e-8)


# any JSON value, NaN and Infinity included (json writes and reads both);
# the test draws bare numbers more often, since they reach the solvers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)

# (command, config, path): the path names the whole config, a section or
# a leaf to replace
FUZZ_TARGETS = [(command, cfg, path)
                for command, cfg in (("sigma0", POINT_CFG), ("map", MAP_CFG))
                for path in [()] + [(s,) for s in cfg]
                + [(s, k) for s in cfg for k in cfg[s]]]


def replaced(cfg, path, value):
    """A copy of cfg with the value at path replaced."""
    if not path:
        return value
    out = copy.deepcopy(cfg)
    table = out
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(FUZZ_TARGETS),
       value=st.floats() | st.integers() | JSON_VALUES)
def test_config_fuzz_exit_codes(tmp_path_factory, target, value):
    command, cfg_data, path = target
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(tmp, replaced(cfg_data, path, value))
    out = tmp / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "map":
        argv += ["--phi-steps", "1", "--alpha-steps", "1"]
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith(("config error:", "numerical failure:"))
    elif command == "sigma0":
        payload = json.loads(out.read_text())
        assert all(math.isfinite(payload[k]) for k in
                   ("sigma0", "est_error", "mu0", "mu_star", "kappa_star"))
    else:
        rows = out.read_text().strip().split("\n")[2:]
        assert rows and all(math.isfinite(float(r.split(",")[2])) for r in rows)
