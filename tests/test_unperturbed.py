"""Load-driven Wiener-Hopf solution and physical-domain reconstruction."""

import math

import numpy as np
import pytest

from interfrac import unperturbed
from interfrac.errors import DomainError, GeometryError
from interfrac.model import (Bimaterial, CrackLoad, point_triple,
                             smooth_exponential)
from interfrac.numerics import QuadratureSpec
from interfrac.unperturbed import UnperturbedSolution
from oracles import cauchy_pv_adaptive, phi1_minus, phi_plus_adaptive


def a_pair(sol, xi):
    """(A1, A2) at xi, both from phi_plus_load."""
    phi_p = sol.phi_plus_load(xi)
    return sol.a_coeff(1, xi, phi_p), sol.a_coeff(2, xi, phi_p)


def polar(r, deg):
    """(r cos deg, r sin deg); a negative r takes the opposite position."""
    return r * math.cos(math.radians(deg)), r * math.sin(math.radians(deg))


@pytest.fixture(scope="module")
def sol():
    # mu* = 0.5, kappa* = 1 at a = 1, mu0 = 16/3
    return UnperturbedSolution(point_triple(1.0, 1.0, 0.75),
                               Bimaterial(3.0, 1.0, 0.25))


@pytest.fixture(scope="module")
def sol_smooth():
    return UnperturbedSolution(smooth_exponential(), Bimaterial(3.0, 1.0, 0.25))


class TestLambda:
    def test_equal_moduli_constant(self):
        s = UnperturbedSolution(point_triple(1.0, 1.0, 0.5),
                                Bimaterial(1.0, 1.0, 0.5))
        for x in (0.2, -3.0, 50.0):
            assert s.lambda_factor(x) == pytest.approx(0.5)

    def test_limit_at_infinity(self, sol):
        assert sol.lambda_factor(1e9) == pytest.approx(0.5, rel=1e-8)

    def test_substitution(self):
        # mu* = 1/2, mu0 = 1 at (mu1, mu2, kappa) = (3, 1, 4/3); xi = 1
        s = UnperturbedSolution(point_triple(1.0, 1.0, 0.5),
                                Bimaterial(3.0, 1.0, 4.0 / 3.0))
        assert s.lambda_factor(1.0) == pytest.approx(0.25)

    def test_zero_rejected(self, sol):
        with pytest.raises(DomainError):
            sol.lambda_factor(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, sol, bad):
        for fn in (sol.lambda_factor, sol.g_rhs):
            for x in (bad, np.array([1.0, bad, -2.0])):
                with pytest.raises(DomainError, match="finite"):
                    fn(x)


class TestPlemeljDecomposition:
    @pytest.mark.parametrize("xi", [0.3, -1.7, 5.0, -20.0, 0.01])
    def test_jump_identity(self, sol, xi):
        lp = sol.l_plus(xi)
        g = sol.g_rhs(xi)
        lm = -0.5 * g + sol.cauchy_pv(xi)[0] / (2.0j * math.pi)
        assert abs(lp - lm - g) < 1e-8 * abs(g)

    def test_decay_at_infinity(self, sol):
        # L(+-) = O(1/xi)
        v1 = abs(sol.l_plus(50.0))
        v2 = abs(sol.l_plus(400.0))
        assert v2 < v1 * (50.0 / 400.0) * 4.0

    def test_zero_load_gives_zero(self):
        zero = CrackLoad(kind="custom-transform",
                         transforms=lambda x: (np.zeros_like(np.asarray(x), dtype=complex),) * 2,
                         decay_exponent=1.0)
        s = UnperturbedSolution(zero, Bimaterial(3.0, 1.0, 0.25))
        assert s.l_plus(0.7) == 0.0
        a1, a2 = a_pair(s, 0.7)
        assert a1 == 0.0 and a2 == 0.0

    def test_conjugate_symmetry(self, sol):
        assert sol.phi_plus_load(-1.3) == pytest.approx(
            np.conj(sol.phi_plus_load(1.3)), abs=1e-8)


class TestBatchedCauchy:
    @pytest.mark.parametrize("load", [smooth_exponential(),
                                      point_triple(1.0, 1.0, 0.75)],
                             ids=["smooth", "point-triple"])
    def test_matches_adaptive_oracle(self, load):
        s = UnperturbedSolution(load, Bimaterial(3.0, 1.0, 0.25))
        xs = np.geomspace(1e-6, 1e3, 20)
        xs = np.concatenate([xs, -xs])
        vals, est = s.cauchy_pv(xs)
        assert vals.shape == est.shape == xs.shape
        spec = QuadratureSpec(rel_tol=1e-11)
        for x, v, e in zip(xs, vals, est):
            ref, ref_est = cauchy_pv_adaptive(s, x, spec)
            dev = abs(v - ref)
            assert dev <= e + ref_est, x
            if abs(x) <= 1.0:
                assert dev <= 3e-9 * abs(ref), x

    def test_bisection_resolves_g(self, monkeypatch):
        # the default mesh against a tight run whose bisection has converged
        # (20 and 30 rounds agree bitwise) on 300 targets: 1.6e-9 relative
        # at most, where the unbisected mesh is 2.1e-8 off
        m = Bimaterial(3.0, 1.0, 0.25)
        x = np.geomspace(1e-3, 1e3, 300)
        got = UnperturbedSolution(smooth_exponential(), m).cauchy_pv(x)[0]
        monkeypatch.setattr(unperturbed, "_PV_SPLITS", 30)
        tight = QuadratureSpec(rel_tol=1e-12, max_subdivisions=20000)
        ref = UnperturbedSolution(smooth_exponential(), m,
                                  spec=tight).cauchy_pv(x)[0]
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 5e-9

    def test_continuous_across_a_panel_edge(self, sol_smooth):
        # with 1.0 among the targets the cut is 2e3 (2e3/a > 20 mu0, 4 |x|),
        # so x below sits exactly on an edge of the mesh that call samples
        lo, _, _ = sol_smooth._pv_samples(2e3, 1.0)
        x = lo[(lo > 0.3) & (lo < 1.0)][0]
        on_edge = sol_smooth.cauchy_pv(np.array([x, 1.0]))[0][0]
        for side in (1.0 - 1e-13, 1.0 + 1e-13):
            beside = sol_smooth.cauchy_pv(np.array([x * side, 1.0]))[0][0]
            assert abs(on_edge - beside) <= 1e-9 * abs(on_edge)

    def test_g_is_the_sum_of_its_point_force_terms(self, sol):
        # the tails past the cut integrate g one table row at a time
        b = np.geomspace(1e-2, 1e2, 20)
        b = np.concatenate([b, -b])
        g = sol.g_rhs(b)
        terms = sum(sol._g(b, a, j) * np.exp(-1j * s * b)
                    for s, a, j in sol.load.oscillations)
        assert np.all(np.abs(terms - g) <= 1e-13 * np.abs(g))

    @pytest.mark.parametrize("load", [smooth_exponential(),
                                      point_triple(1.0, 1.0, 0.75)],
                             ids=["smooth", "point-triple"])
    def test_g_evaluates_b_plus_once(self, load, monkeypatch):
        # work guard: B^- = conj B^+ on the real axis, so a node batch of g
        # costs one B^+ evaluation and no B^-
        s = UnperturbedSolution(load, Bimaterial(3.0, 1.0, 0.25))
        seen = {"b_plus": [], "b_minus": []}
        for name, sizes in seen.items():
            def counted(x, fn=getattr(s.kernel, name), sizes=sizes):
                sizes.append(np.size(x))
                return fn(x)
            monkeypatch.setattr(s.kernel, name, counted)
        b = np.geomspace(1e-3, 1e3, 50)
        s.g_rhs(np.concatenate([b, -b]))
        assert seen == {"b_plus": [100], "b_minus": []}
        s.phi_plus_load(np.array([0.5, 2.0]))
        assert seen["b_minus"] == []

    def test_too_far_for_the_oscillatory_mesh(self, sol):
        # 1e6 needs ~2.2e6 half-period panels per half-line: input the mesh
        # rule refuses before any sampling, not a quadrature that failed to
        # converge
        with pytest.raises(DomainError, match="2228314 panels"):
            sol.cauchy_pv(1e6)

    @pytest.mark.parametrize("a", [1e-300, 1e-270])
    def test_no_finite_mesh_refused(self, a):
        # the smooth load's mesh ends at 2^40 * 2e3/a: past the float range
        # at a = 1e-300, and 1e-40 below it at a = 1e-270, whose ratio-2
        # edges from 1e-40 out to it cannot be counted
        with pytest.raises(DomainError):
            UnperturbedSolution(smooth_exponential(a),
                                Bimaterial(1.0, 1.0, 0.5))

    @pytest.mark.parametrize("name,x", [("cauchy_pv", 1e300),
                                        ("l_plus", 1e300),
                                        ("phi_plus_load", 1e280)])
    def test_no_finite_mesh_for_a_target_refused(self, sol_smooth, name, x):
        # a target's own cut 4|x| puts the mesh's outer edge 2^40 beyond it,
        # past the float range or too far from 1e-40 to count its edges
        with pytest.raises(DomainError):
            getattr(sol_smooth, name)(x)

    @pytest.mark.parametrize("name", ["cauchy_pv", "l_plus", "phi_plus_load"])
    def test_empty_targets_give_empty_arrays(self, sol_smooth, name):
        # no targets: no mesh is sampled and no phi^+ table is built
        s = UnperturbedSolution(sol_smooth.load, sol_smooth.material)

        def refuse(lo, hi):
            raise AssertionError("g sampled for no targets")

        s._g_on_panels = refuse
        for shape in [(0,), (0, 3)]:
            out = getattr(s, name)(np.zeros(shape))
            if name == "cauchy_pv":
                assert out[1].shape == shape
                out = out[0]
            assert out.shape == shape and out.dtype == complex
        assert s._phi_interp is None

    def test_load_over_the_panel_cap_refused(self):
        # mu0 = 2e7 puts the base cut at 4e8, 1.9e8 half-period panels per
        # half-line: no position could be served, so the load is refused
        with pytest.raises(DomainError, match="1.909861e\\+08 panels"):
            UnperturbedSolution(point_triple(1.0, 1.0, 0.5),
                                Bimaterial(1.0, 1.0, 1e-7))

    def test_one_shared_sampling_fills_the_table(self, sol_smooth):
        # the delta_warm extent: 73 panels of 6 targets up to 2 * 40 / 0.069
        s = UnperturbedSolution(sol_smooth.load, sol_smooth.material)
        g = s.g_rhs
        seen = []

        def counted(b):
            seen.append(np.size(b))
            return g(b)

        s.g_rhs = counted
        s._phi_table(40.0 / 0.0690)
        assert len(s._phi_interp[0].x) == 438
        assert sum(seen) <= 20000


class TestLoadProblemIdentities:
    @pytest.mark.parametrize("xi", [0.5, -2.2, 8.0])
    def test_wiener_hopf_residual(self, sol, xi):
        avg_p, jump_p = sol.load.transforms(np.array([xi]))
        avg_p, jump_p = complex(avg_p[0]), complex(jump_p[0])
        phi_p = sol.phi_plus_load(xi)
        phi1_m = phi1_minus(sol, xi)
        kappa = sol.kappa
        lhs = (-kappa * sol.kernel.xi(xi) * (phi_p + avg_p)
               - phi1_m - kappa * sol.lambda_factor(xi) * jump_p)
        scale = abs(kappa * sol.kernel.xi(xi) * avg_p) + abs(phi1_m)
        assert abs(lhs) < 1e-7 * scale

    def test_phi_plus_decays(self, sol):
        assert abs(sol.phi_plus_load(500.0)) < abs(sol.phi_plus_load(5.0)) / 20.0

    @pytest.mark.parametrize("xi", [0.7, -3.0])
    def test_traction_identities(self, sol, xi):
        a1, a2 = map(complex, a_pair(sol, xi))
        avg_p, jump_p = sol.load.transforms(np.array([xi]))
        avg_p, jump_p = complex(avg_p[0]), complex(jump_p[0])
        m = sol.material
        jump_sigma = -abs(xi) * (m.mu1 * a1 + m.mu2 * a2)
        avg_sigma = 0.5 * abs(xi) * (m.mu2 * a2 - m.mu1 * a1)
        assert abs(jump_sigma - jump_p) < 1e-8 * max(1.0, abs(jump_p))
        assert abs(avg_sigma - avg_p - sol.phi_plus_load(xi)) < 1e-8

    @pytest.mark.parametrize("xi", [0.9, -4.0])
    def test_transmission_identity(self, sol, xi):
        # 2[u] - 2 kappa <sigma> = phi1^- + phi2^-
        avg_p, jump_p = sol.load.transforms(np.array([xi]))
        avg_p, jump_p = complex(avg_p[0]), complex(jump_p[0])
        phi_p = sol.phi_plus_load(xi)
        phi1 = phi1_minus(sol, xi)
        phi2 = phi1 + sol.kappa * jump_p
        jump_u = phi1 + sol.kappa * (phi_p + avg_p) + 0.5 * sol.kappa * jump_p
        avg_sigma = avg_p + phi_p
        res = 2.0 * jump_u - 2.0 * sol.kappa * avg_sigma - phi1 - phi2
        assert abs(res) < 1e-8 * max(1.0, abs(jump_u))

    def test_a_conjugate_symmetry(self, sol):
        a1p, a2p = a_pair(sol, 2.4)
        a1m, a2m = a_pair(sol, -2.4)
        assert complex(a1m) == pytest.approx(np.conj(complex(a1p)), abs=1e-10)
        assert complex(a2m) == pytest.approx(np.conj(complex(a2p)), abs=1e-10)

    def test_grad_integrand_bounded_at_origin(self, sol):
        # the xi -> 0 singularity of A_j is cancelled by the spectral
        # multipliers: |xi A_j| stays bounded (in fact it vanishes like
        # sqrt(xi), since phi+(0) = -<p>(0) exactly)
        xs = np.array([1e-4, 1e-5, 1e-6])
        vals = [abs(complex(a_pair(sol, x)[0])) * x for x in xs]
        assert max(vals) < 1.0
        assert vals == sorted(vals, reverse=True)
        phi0 = sol.phi_plus_load(1e-8)
        assert phi0 == pytest.approx(-sol.load.F, abs=5e-3)


class TestGradient:
    def test_linearity_in_force(self, sol_smooth):
        m = sol_smooth.material
        load2 = CrackLoad(
            kind="custom-transform",
            transforms=lambda x: tuple(2.0 * t for t in sol_smooth.load.transforms(x)),
            decay_exponent=1.0)
        sol2 = UnperturbedSolution(load2, m)
        g1 = sol_smooth.grad_u0((0.3, 0.9))
        g2 = sol2.grad_u0((0.3, 0.9))
        assert g2[0] == pytest.approx(2 * g1[0], rel=1e-6)
        assert g2[1] == pytest.approx(2 * g1[1], rel=1e-6)

    def test_decay_far_from_tip(self, sol_smooth):
        near = np.hypot(*sol_smooth.grad_u0((0.0, 1.0)))
        far = np.hypot(*sol_smooth.grad_u0((0.0, 40.0)))
        assert far < near / 50.0

    def test_interp_matches_direct_phi(self, sol_smooth):
        table = sol_smooth._phi_table(50.0)[0]
        for x in (0.3, 4.0, 29.0):
            direct = phi_plus_adaptive(sol_smooth, x)
            cached = table(np.array([x]))[0]
            assert abs(cached - direct) < 1e-6 * max(abs(direct), 1e-6)

    @pytest.mark.parametrize("load, bound", [
        (smooth_exponential(), 1e-6), (point_triple(1.0, 1.0, 0.5), 1e-5)])
    def test_table_matches_phi_plus_load(self, load, bound):
        # the delta_warm extent, [1e-6, 1159.4] on Bimaterial(3, 1, 0.25);
        # the worst point is near the extremum of the PCHIP Hhat, 2.1 mu0
        s = UnperturbedSolution(load, Bimaterial(3.0, 1.0, 0.25))
        table, lo, hi = s._phi_table(40.0 / 0.0690)
        rng = np.random.default_rng(23)
        xi = np.exp(rng.uniform(math.log(lo), math.log(hi), 400))
        direct = s.phi_plus_load(xi)
        assert np.max(np.abs(table(xi) - direct)
                      / np.abs(direct)) < bound

    def test_table_kept_for_a_smaller_cut(self, sol_smooth):
        # sin(170 deg) is 2 ulp below sin(10 deg), so the second cut is a
        # hair larger than the first; the table built for it covers both
        s = UnperturbedSolution(sol_smooth.load, sol_smooth.material)
        s.grad_u0((math.cos(math.radians(10.0)), math.sin(math.radians(10.0))))
        table = s._phi_interp
        s.grad_u0((math.cos(math.radians(170.0)), math.sin(math.radians(170.0))))
        assert s._phi_interp is table

    @pytest.mark.parametrize("Y", [
        (0.5, 0.8), (0.0, -1.0), (-1.2, 0.4), polar(1.6, 5.0), polar(-0.8, 5.0),
        "0.9 reach at 30 deg"])
    @pytest.mark.parametrize("which", ["sol", "sol_smooth"])
    def test_error_estimate(self, request, which, Y):
        # the estimate is small against |G| and bounds each component's
        # deviation from a run at rel_tol = 1e-12 on the same phi^+ table,
        # also on the 5 deg angle guard and near the reach
        s = request.getfixturevalue(which)
        if isinstance(Y, str):
            Y = polar(0.9 * s.reach, 30.0)
        gx, gy, err = s._grad_integrals(*Y, s.spec)
        tight_x, tight_y, _ = s._grad_integrals(*Y, QuadratureSpec(rel_tol=1e-12))
        assert err < 1e-6 * math.hypot(gx, gy)
        assert abs(gx - tight_x) <= err
        assert abs(gy - tight_y) <= err

    def test_error_estimate_on_seeded_positions(self):
        # calibration on 90 seeded positions, 30 per material, smooth load:
        # the distance log-uniform in [0.05, 3], 5-175 deg in either
        # half-plane. The estimate bounds the deviation of G from a
        # rel_tol = 1e-12 run on the same phi^+ table, filled first for the
        # lowest position; 22 missed (up to 2.35 times) when the table
        # jumped at its panel joins and the line integral did not stop there
        rng = np.random.default_rng(11)
        tight = QuadratureSpec(rel_tol=1e-12)
        ratios = []
        for material in (Bimaterial(1.0, 1.0, 0.5), Bimaterial(1.0, 2.5, 3.0),
                         Bimaterial(3.0, 1.0, 0.25)):
            r = np.exp(rng.uniform(math.log(0.05), math.log(3.0), 30))
            phi = np.radians(rng.uniform(5.0, 175.0, 30)) * rng.choice([-1.0, 1.0], 30)
            s = UnperturbedSolution(smooth_exponential(), material)
            s.grad_u0((0.0, 0.99 * np.min(np.abs(r * np.sin(phi)))))
            for x, y in zip(r * np.cos(phi), r * np.sin(phi)):
                gx, gy, err = s._grad_integrals(x, y, s.spec)
                tight_x, tight_y, _ = s._grad_integrals(x, y, tight)
                ratios.append(math.hypot(gx - tight_x, gy - tight_y) / err)
        assert max(ratios) <= 1.0, (
            f"{sum(q > 1.0 for q in ratios)} of 90 missed, worst {max(ratios):.3g}")

    def test_one_integral_per_gradient(self, sol_smooth, monkeypatch):
        # work guard: the gx integrand is i times the gy one, and u0 takes
        # the difference of its two kernels under one half-line integral
        calls = []
        integrate = unperturbed.half_line

        def counted(*args, **kwargs):
            calls.append(None)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(unperturbed, "half_line", counted)
        sol_smooth.grad_u0((0.3, 0.9))
        assert len(calls) == 1
        sol_smooth.u0(0.3, 0.9)
        assert len(calls) == 2

    def test_geometry_guards(self, sol_smooth):
        for bad in ((0.5, math.nan), (1.0, math.inf), (math.inf, 1.0)):
            with pytest.raises(GeometryError):
                sol_smooth.grad_u0(bad)
            with pytest.raises(GeometryError):
                sol_smooth.u0(*bad)
            with pytest.raises(GeometryError):
                sol_smooth.u0(0.4, 0.7, ref=bad)
        with pytest.raises(GeometryError):
            sol_smooth.grad_u0((1.0, 0.0))
        with pytest.raises(GeometryError):
            sol_smooth.grad_u0((1.0, 0.01))  # ~0.6 degrees off the interface
        sol_smooth.grad_u0((1.0, 0.01), min_angle_deg=0.25)
        g = math.radians(4.9)
        with pytest.raises(GeometryError):
            sol_smooth.grad_u0((1.3 * math.cos(g), 1.3 * math.sin(g)))

    @pytest.mark.parametrize("which,y", [("sol_smooth", 1e-300),
                                         ("sol", 1e-250), ("sol", -1e-20)])
    def test_no_finite_mesh_position_refused(self, request, which, y):
        # the phi^+ table for such a |y| would need a Cauchy mesh past the
        # float range (smooth load), or more half-period panels than an
        # integer holds (point load)
        s = request.getfixturevalue(which)
        with pytest.raises(GeometryError):
            s.grad_u0((0.0, y))
        with pytest.raises(GeometryError):
            s.u0(1.0, y)

    @pytest.mark.parametrize("y,panels", [(1e-3, 152930), (-1e-4, 1528033)])
    def test_panel_cap_refused_before_sampling(self, monkeypatch, y, panels):
        # the phi^+ table for |y| = 1e-3 would put the Cauchy mesh of
        # point_triple(1, 1, 0.5) at 152930 half-period panels per
        # half-line, above the 32768 cap: a geometry error, with no g
        # sampled, for the gradient and for u0 at that position or with
        # its reference point there
        s = UnperturbedSolution(point_triple(1.0, 1.0, 0.5),
                                Bimaterial(3.0, 1.0, 0.25))

        def unsampled(*args):
            raise AssertionError("g sampled for a refused position")

        monkeypatch.setattr(s, "_g_on_panels", unsampled)
        monkeypatch.setattr(s, "g_rhs", unsampled)
        with pytest.raises(GeometryError, match=f"{panels} panels"):
            s.grad_u0((0.0, y))
        with pytest.raises(GeometryError, match=f"{panels} panels"):
            s.check_position((0.0, y))
        with pytest.raises(GeometryError, match=f"{panels} panels"):
            s.u0(0.0, y)
        with pytest.raises(GeometryError, match=f"{panels} panels"):
            s.u0(0.0, math.copysign(1.0, y), ref=(0.0, y))
        assert s._phi_interp is None

    def test_far_field_reach(self, sol_smooth):
        # below its low end 1e-6 scale the phi^+ table holds phi^+
        # constant, which shifts the field at distance r by about
        # (1e-6 scale r)^1.5; positions past r = 1e2 / scale are refused
        s = UnperturbedSolution(sol_smooth.load, sol_smooth.material)
        reach = 1e2 / s._scale
        c, t = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        inside, outside = reach * (1.0 - 1e-9), reach * (1.0 + 1e-9)
        assert all(map(math.isfinite, s.grad_u0((inside * c, inside * t))))
        assert math.isfinite(s.u0(inside * c, inside * t))
        with pytest.raises(GeometryError, match="reach"):
            s.grad_u0((outside * c, outside * t))
        with pytest.raises(GeometryError, match="reach"):
            s.u0(outside * c, outside * t)
        with pytest.raises(GeometryError, match="reach"):
            s.u0(0.0, 1.0, ref=(outside * c, outside * t))

    def test_gradient_against_finite_differences(self, sol_smooth):
        Y = (0.5, 0.8)
        h = 1e-3
        gx, gy = sol_smooth.grad_u0(Y)
        u = {}
        for tag, (dx, dy) in {"e": (h, 0), "w": (-h, 0), "n": (0, h),
                              "s": (0, -h)}.items():
            u[tag] = sol_smooth.u0(Y[0] + dx, Y[1] + dy)
        gmag = math.hypot(gx, gy)
        assert (u["e"] - u["w"]) / (2 * h) == pytest.approx(gx, abs=1e-5 * gmag + 1e-9)
        assert (u["n"] - u["s"]) / (2 * h) == pytest.approx(gy, abs=1e-5 * gmag + 1e-9)

    def test_u0_reference_point_conventions(self, sol_smooth):
        # u0 differences are reference-independent
        a = sol_smooth.u0(0.4, 0.7, ref=(0.0, 1.0)) - sol_smooth.u0(0.1, 0.9, ref=(0.0, 1.0))
        b = sol_smooth.u0(0.4, 0.7, ref=(0.3, 2.0)) - sol_smooth.u0(0.1, 0.9, ref=(0.3, 2.0))
        assert a == pytest.approx(b, abs=1e-9)
        with pytest.raises(GeometryError):
            sol_smooth.u0(0.4, 0.7, ref=(0.0, -1.0))
        with pytest.raises(GeometryError):
            sol_smooth.u0(0.4, 0.0)
