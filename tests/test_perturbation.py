"""Dipole matrices, boundary-layer tractions, and the first-order
crack-tip correction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from interfrac.errors import DomainError, GeometryError
from interfrac import _kernels, perturbation
from interfrac.model import (Bimaterial, InclusionSpec, point_triple,
                             smooth_exponential)
from interfrac.numerics import QuadratureSpec
from interfrac.perturbation import (_delta_from_v, _pole_transforms,
                                    delta_sigma0, dipole_elliptic, dipole_for,
                                    dipole_rigid, sign_map)
from interfrac.unperturbed import UnperturbedSolution
from interfrac.weightfn import WeightField, sigma0
from oracles import (_layer_pair, boundary_layer_dy,
                     effective_traction_transforms, halfline_fourier,
                     layer_dy, pole_transform_pos)

SPEC = QuadratureSpec()
MATERIAL = Bimaterial(3.0, 1.0, 0.25)  # mu* = 0.5, kappa* = 1 at a = 1
LOAD = smooth_exponential()


@pytest.fixture(scope="module")
def pipeline():
    solution = UnperturbedSolution(LOAD, MATERIAL, spec=SPEC)
    field = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
    return solution, field


class TestDipoles:
    def test_neutral_contrast_gives_zero(self):
        assert np.abs(dipole_elliptic(1.0, 0.5, 0.2, 1.0)).max() == 0.0

    def test_circle_elastic(self):
        # B reduces to (2/(1+nu)) I at e = 1, so M = -2 pi l^2 (nu-1)/(nu+1) I
        M = dipole_elliptic(1.0, 1.0, 0.3, 5.0)
        assert np.allclose(M, -(4.0 * math.pi / 3.0) * np.eye(2), atol=1e-12)

    def test_circle_rigid(self):
        assert np.allclose(dipole_rigid(1.0, 1.0, 1.1),
                           2.0 * math.pi * np.eye(2), atol=1e-12)

    def test_rigid_is_vanishing_contrast_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            la = rng.uniform(0.5, 2.0)
            e = rng.uniform(0.05, 1.0)
            al = rng.uniform(0.0, math.pi)
            rigid = dipole_rigid(la, e * la, al)
            soft = dipole_elliptic(la, e * la, al, 1e-8)
            assert np.abs(rigid - soft).max() <= 1e-6 * np.abs(rigid).max()

    @pytest.mark.parametrize("nu,sign", [(0.2, 1.0), (5.0, -1.0)])
    def test_definiteness(self, nu, sign):
        rng = np.random.default_rng(11)
        for _ in range(20):
            la = rng.uniform(0.5, 2.0)
            e = rng.uniform(0.05, 1.0)
            al = rng.uniform(0.0, math.pi)
            ev = np.linalg.eigvalsh(dipole_elliptic(la, e * la, al, nu))
            assert np.all(sign * ev > 0)

    def test_rigid_positive_definite(self):
        ev = np.linalg.eigvalsh(dipole_rigid(1.3, 0.2, 0.9))
        assert np.all(ev > 0)

    def test_symmetry(self):
        M = dipole_elliptic(1.1, 0.4, 0.77, 3.3)
        assert M[0, 1] == M[1, 0]

    def test_dipole_for_dispatch(self):
        inc = InclusionSpec(d=1.0, phi=1.0, alpha=0.4, ell_a=0.1, ell_b=0.05,
                            rigid=True)
        assert np.allclose(dipole_for(inc), dipole_rigid(0.1, 0.05, 0.4))

    def test_validation(self):
        with pytest.raises(DomainError):
            dipole_elliptic(0.5, 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            dipole_elliptic(1.0, 0.5, 0.0, -2.0)


class TestBoundaryLayer:
    def test_zero_dipole(self):
        assert boundary_layer_dy(0.3, (1.0, 2.0), np.zeros((2, 2)), (0.0, 1.0)) == 0.0

    def test_reference_value(self):
        val = boundary_layer_dy(0.0, (0.0, 1.0), np.eye(2), (0.0, 1.0))
        assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_far_field_decay(self):
        # |dy| x^2 stays bounded as x -> -inf
        x = np.array([-10.0, -100.0, -1000.0])
        vals = boundary_layer_dy(x, (0.7, -0.3), np.diag([2.0, 1.0]), (0.2, 0.9))
        assert np.abs(vals * x * x).max() < 10.0

    def test_centre_on_line_rejected(self):
        with pytest.raises(GeometryError):
            boundary_layer_dy(0.1, (1.0, 0.0), np.eye(2), (0.5, 0.0))


class TestEffectiveTractions:
    def test_ratio_is_contrast(self):
        pm, qm, pp, qp = effective_traction_transforms(
            (0.4, 0.3), np.eye(2), (0.2, 0.9), MATERIAL, 1.3, SPEC)
        two_mu_star = 2.0 * MATERIAL.mu_star
        assert qm / pm == pytest.approx(two_mu_star, rel=1e-12)
        assert qp / pp == pytest.approx(two_mu_star, rel=1e-12)

    def test_equal_moduli_kill_q(self):
        m = Bimaterial(2.0, 2.0, 0.3)
        _, qm, _, qp = effective_traction_transforms(
            (0.4, 0.3), np.eye(2), (0.2, 0.9), m, 0.7, SPEC)
        assert qm == 0.0 and qp == 0.0

    def test_zero_frequency_matches_plain_integrals(self):
        from interfrac.numerics import integrate_err
        G = (0.5, -0.2)
        M = np.diag([1.5, 0.7])
        Y = (0.3, 1.1)
        pm, _, pp, _ = effective_traction_transforms(G, M, Y, MATERIAL, 0.0, SPEC)
        v = M @ np.asarray(G)
        scale = -0.5 * (MATERIAL.mu1 + MATERIAL.mu2)

        def dy(x):
            return boundary_layer_dy(x, G, M, Y)

        big = 3e7  # plain truncation leaves an O(1/big) algebraic tail
        left = integrate_err(dy, -big, 0.0, SPEC,
                             breakpoints=[-big * 2.0 ** (-k) for k in range(1, 52)])[0]
        right = integrate_err(dy, 0.0, big, SPEC,
                              breakpoints=[big * 2.0 ** (-k) for k in range(1, 52)])[0]
        assert pm == pytest.approx(scale * left, abs=1e-8)
        assert pp == pytest.approx(scale * right, abs=1e-8)

    @pytest.mark.parametrize("Y", [(0.5, 0.8), (0.0, 1.0), (-0.7, 1.3), (0.6, -1.1)])
    def test_closed_form_matches_quadrature(self, Y):
        # dual route: the exponential-integral layer transforms against the
        # direct half-line Fourier operation
        v = np.array([0.4, -0.9])
        dy = lambda x: layer_dy(x, v, Y)
        for xi in (0.37, -2.2, 31.0):
            minus, plus = _layer_pair(v, Y, xi)
            tm = halfline_fourier(dy, "negative-axis", xi, SPEC)
            tp = halfline_fourier(dy, "positive-axis", xi, SPEC)
            assert abs(minus[0] - tm) < 1e-10
            assert abs(plus[0] - tp) < 1e-10

    SHARED_Y = [(0.0, 1.0), (0.0, -1.0), (0.4, 0.9), (0.4, -0.9), (-0.7, 1.3)]

    @pytest.mark.parametrize("Y", SHARED_Y)
    def test_shared_pole_evaluation(self, Y):
        # one e^z E1(z) per pole and node serves both continuations; at
        # cx = 0 every node lies on the E1 cut
        xi = np.geomspace(1e-6, 1e4, 61)
        xi = np.concatenate([xi, -xi])
        p = complex(*Y)
        for q in (p, p.conjugate()):
            pos, neg = _pole_transforms(q, xi)
            for got, want in ((pos, pole_transform_pos(q, xi)),
                              (neg, pole_transform_pos(-q, -xi))):
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestDeltaSigma0:
    @pytest.mark.parametrize("which", ["solution", "field"])
    def test_prebuilt_for_another_material_refused(self, which):
        # another material's solution gave -3.24e-4 here instead of -1.36e-4
        other = Bimaterial(1.0, 1.0, 0.5)
        built = (UnperturbedSolution(LOAD, other) if which == "solution"
                 else WeightField(other))
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        with pytest.raises(DomainError, match="built for"):
            delta_sigma0(LOAD, MATERIAL, inc, **{which: built})

    def test_prebuilt_for_another_load_refused(self):
        # a point triple's solution gave -1.30e-3 here, for delta_sigma0 and
        # sign_map alike, instead of the smooth load's -1.36e-4
        other = UnperturbedSolution(point_triple(1.0, 1.0, 0.5), MATERIAL)
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        with pytest.raises(DomainError, match="built for"):
            delta_sigma0(LOAD, MATERIAL, inc, solution=other)
        with pytest.raises(DomainError, match="built for"):
            sign_map(LOAD, MATERIAL, inc, [1.2], [0.3], solution=other)

    def test_linear_in_dipole(self, pipeline):
        solution, field = pipeline
        v = np.array([0.3, -0.7])
        d1, _ = _delta_from_v(field, v, (0.0, 1.0), SPEC)
        d2, _ = _delta_from_v(field, 2.0 * v, (0.0, 1.0), SPEC)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-8)
        # a (2, k) stack of strengths shares one response: each column is
        # its own call, bitwise, and V = 0 is exactly neutral
        vs = np.array([[0.3, 0.6, 1.0, 0.0], [-0.7, -1.4, 0.0, 0.0]])
        deltas, ests = _delta_from_v(field, vs, (0.4, 0.9), SPEC)
        assert deltas.shape == ests.shape == (4,)
        for j in range(vs.shape[1]):
            assert (deltas[j], ests[j]) == _delta_from_v(
                field, vs[:, j], (0.4, 0.9), SPEC)
        assert (deltas[3], ests[3]) == (0.0, 0.0)

    def test_warm_field_reads_no_kernel_factor(self, pipeline, monkeypatch):
        # work guard: the first pass on a field evaluates B^+ once, on the
        # nodes of the weight table it builds; a second reads that table and
        # evaluates no kernel factor at any of its layer-transform nodes
        solution, _ = pipeline
        field = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        first = self._count_points(field, monkeypatch, (0.4, 0.9))
        assert first["b_plus"] == field._weight_table(0.0).x.size
        second = self._count_points(field, monkeypatch, (0.4, 0.9))
        assert second["b_plus"] == 0 < second["layer"]

    def test_weight_table_rebuilt_past_its_top(self, pipeline):
        # the table's top is 1e8 mu0 until a call's x_cut passes it: a
        # stretched truncation (x_cut 7.7e8, top 5.3e8) rebuilds it to cover
        # that x_cut, and the call then equals a fresh field's, bitwise
        solution, _ = pipeline
        field = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        v, Y = np.array([0.3, -0.7]), (0.4, 0.9)
        _delta_from_v(field, v, Y, SPEC)
        built = field._weight_table(0.0)
        assert built.hi == 1e8 * field.kernel.mu0
        stretched = replace(SPEC, truncation_radius=3e10)
        warm = _delta_from_v(field, v, Y, stretched)
        table = field._weight_table(0.0)
        assert table is not built and table.hi > 1e8 * field.kernel.mu0
        fresh = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        assert warm == _delta_from_v(fresh, v, Y, stretched)
        assert fresh._weight_table(0.0).hi == table.hi

    def test_weight_table_within_est_error_of_a_tight_jump_u_run(
            self, pipeline, monkeypatch):
        # calibration: on 40 seeded positions in both half-planes, 5 to 175
        # deg from the interface, the default pass reading the weight table
        # lies within its est_error of a rel_tol = 1e-12 pass that reads
        # u^{3/2} jump_u at every node (measured: 0.012 est_error at most)
        solution, field = pipeline
        direct = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        monkeypatch.setattr(direct, "_weight_table", lambda hi: (
            lambda u: u * np.sqrt(u) * direct.jump_u(u)))
        tight = replace(SPEC, rel_tol=1e-12)
        rng = np.random.default_rng(29)
        d = rng.uniform(0.8, 1.6, 40)
        phi = np.radians(rng.uniform(5.0, 175.0, 40)) * rng.choice([-1, 1], 40)
        turn = rng.uniform(0.0, 2.0 * math.pi, 40)
        for i in range(40):
            Y = (d[i] * math.cos(phi[i]), d[i] * math.sin(phi[i]))
            v = np.array([math.cos(turn[i]), math.sin(turn[i])])
            delta, est = _delta_from_v(field, v, Y, SPEC)
            assert abs(delta - _delta_from_v(direct, v, Y, tight)[0]) <= est

    # layer-transform nodes of one _delta_from_v that integrates both
    # half-lines (counted as kernel-factor points, one per node, while the
    # weight read jump_u at every node)
    NODES_UNFOLDED = {(0.4, 0.9): 7224}

    @pytest.mark.parametrize("Y", [(0.4, 0.9), (0.0, 1.0), (1.2, 0.15)])
    def test_one_e1_per_pole_per_node(self, pipeline, monkeypatch, Y):
        # work guard: the two layer transforms share one e^z E1(z) per pole
        # per node, and the folded integrand visits u > 0 only
        solution, field = pipeline
        points = self._count_points(field, monkeypatch, Y)
        assert points["e1"] <= 1.05 * 2 * points["layer"]
        if Y in self.NODES_UNFOLDED:
            assert points["layer"] <= 0.5 * self.NODES_UNFOLDED[Y]

    @staticmethod
    def _count_points(field, monkeypatch, Y):
        points = {"b_plus": 0, "layer": 0, "e1": 0}
        b_plus = field.kernel.b_plus
        double_pole = perturbation._double_pole_transforms
        scaled_e1 = _kernels.scaled_e1

        def counted_b_plus(x):
            points["b_plus"] += np.size(x)
            return b_plus(x)

        def counted_double_pole(q, u):
            # one call per node batch, for both poles
            points["layer"] += np.size(u)
            return double_pole(q, u)

        def counted_e1(z):
            points["e1"] += np.size(z)
            return scaled_e1(z)

        monkeypatch.setattr(field.kernel, "b_plus", counted_b_plus)
        monkeypatch.setattr(perturbation, "_double_pole_transforms",
                            counted_double_pole)
        monkeypatch.setattr(_kernels, "scaled_e1", counted_e1)
        _delta_from_v(field, np.array([0.3, -0.7]), Y, SPEC)
        return points

    def test_neutral_contrast(self, pipeline):
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.15,
                            ell_b=0.15, nu_star=1.0)
        r = delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)
        assert r.delta_sigma0 == 0.0
        assert r.sign == "neutral"
        assert r.sigma0_base is not None
        assert r.sigma0_total == r.sigma0_base

    def test_small_inclusion_is_not_neutral(self, pipeline):
        # |v| = |M G| ~ 5e-10 here: a tiny but physical inclusion keeps the
        # linear law in its area, ell_a ell_b
        solution, field = pipeline
        res = {}
        for scale in (1.0, 1e-3):
            inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0,
                                ell_a=0.2 * scale, ell_b=0.1 * scale, nu_star=5.0)
            res[scale] = delta_sigma0(LOAD, MATERIAL, inc, solution=solution,
                                      field=field)
        small, ref = res[1e-3], res[1.0]
        assert small.delta_sigma0 == pytest.approx(1e-6 * ref.delta_sigma0, rel=1e-6)
        assert small.sign == ref.sign != "neutral"
        assert small.sigma0_base == ref.sigma0_base

    def test_results_are_plain_floats(self, pipeline):
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                            ell_b=0.1, nu_star=5.0)
        r = delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)
        base = sigma0(LOAD, MATERIAL, SPEC, field=field)
        values = [r.delta_sigma0, r.est_error, r.sigma0_base, r.sigma0_total,
                  r.epsilon, base.sigma0, base.est_error,
                  *solution.grad_u0((0.3, 0.9))]
        assert all(type(v) is float for v in values), [type(v) for v in values]
        assert type(base.integral) is complex

    def test_circle_alpha_independence(self, pipeline):
        solution, field = pipeline
        vals = []
        for alpha in (0.0, 1.1):
            inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=alpha,
                                ell_a=0.15, ell_b=0.15, nu_star=5.0)
            vals.append(delta_sigma0(LOAD, MATERIAL, inc, solution=solution,
                                     field=field).delta_sigma0)
        assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[0])

    def test_circle_contrast_inversion_flips_sign(self, pipeline):
        # the circle dipole maps nu -> 1/nu onto M -> -M exactly
        solution, field = pipeline
        res = {}
        for nu in (5.0, 0.2):
            inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0,
                                ell_a=0.15, ell_b=0.15, nu_star=nu)
            res[nu] = delta_sigma0(LOAD, MATERIAL, inc, solution=solution,
                                   field=field).delta_sigma0
        assert res[5.0] == pytest.approx(-res[0.2], rel=1e-10)

    def test_linear_in_load(self, pipeline):
        solution, field = pipeline
        from interfrac.model import CrackLoad
        load2 = CrackLoad(
            kind="custom-transform",
            transforms=lambda x: tuple(2.0 * t for t in LOAD.transforms(x)),
            decay_exponent=1.0)
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.3, ell_a=0.2,
                            ell_b=0.1, nu_star=5.0)
        r1 = delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)
        r2 = delta_sigma0(load2, MATERIAL, inc)
        assert r2.delta_sigma0 == pytest.approx(2.0 * r1.delta_sigma0, rel=1e-5)

    def test_sign_classification_band(self, pipeline):
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                            ell_b=0.1, nu_star=5.0)
        r = delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)
        assert r.sign == ("neutral" if abs(r.delta_sigma0) <= r.est_error
                          else ("amplifying"
                                if r.sigma0_base * r.delta_sigma0 > 0
                                else "shielding"))
        assert r.sigma0_total == pytest.approx(
            r.sigma0_base + inc.epsilon ** 2 * r.delta_sigma0, rel=1e-12)

    def test_min_angle_guard(self, pipeline):
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=math.radians(2.0), alpha=0.0,
                            ell_a=0.2, ell_b=0.1, nu_star=5.0)
        with pytest.raises(GeometryError):
            delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)

    def test_rigid_flips_the_soft_response(self, pipeline):
        # a rigid inclusion stiffens the neighbourhood where the nu*=5 one
        # softens it, so the crack-tip effect reverses
        solution, field = pipeline
        place = dict(d=1.0, phi=math.pi / 2, alpha=0.7, ell_a=0.2, ell_b=0.1)
        soft = delta_sigma0(LOAD, MATERIAL,
                            InclusionSpec(nu_star=5.0, **place),
                            solution=solution, field=field)
        rigid = delta_sigma0(LOAD, MATERIAL,
                             InclusionSpec(rigid=True, **place),
                             solution=solution, field=field)
        assert soft.sign == "shielding"
        assert rigid.sign == "amplifying"

    def test_label_independent_of_load_sign_and_units(self):
        # shielding means |sigma0| falls: F -> -F flips sigma0 and delta
        # together, and a unit of length lam scales both by positive factors
        labels = set()
        for F, lam in ((1.0, 1.0), (-1.0, 1.0), (1.0, 2.0), (-1.0, 2.0)):
            inc = InclusionSpec(d=lam, phi=0.7, alpha=0.3, ell_a=0.05 * lam,
                                ell_b=0.01 * lam, nu_star=3.0)
            r = delta_sigma0(point_triple(F, lam, 0.75 * lam),
                             Bimaterial(3.0, 1.0, 0.25 * lam), inc)
            assert r.sign != "neutral"
            assert (r.sign == "shielding") == (
                abs(r.sigma0_total) < abs(r.sigma0_base))
            labels.add(r.sign)
        assert labels == {"shielding"}

    @staticmethod
    def _count_sigma0(monkeypatch):
        """Loads passed to perturbation._sigma0 from now on."""
        loads = []
        real = perturbation._sigma0

        def counting(load, *args, **kwargs):
            loads.append(load)
            return real(load, *args, **kwargs)

        monkeypatch.setattr(perturbation, "_sigma0", counting)
        return loads

    WARM_INCLUSIONS = (
        InclusionSpec(d=1.0, phi=0.7, alpha=0.3, ell_a=0.2, ell_b=0.1,
                      nu_star=5.0),
        InclusionSpec(d=1.4, phi=-2.1, alpha=1.1, ell_a=0.1, ell_b=0.08,
                      nu_star=0.3),
        InclusionSpec(d=0.9, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                      ell_b=0.05, rigid=True),
    )

    def test_sigma0_base_once_per_field_load_and_spec(self, pipeline,
                                                      monkeypatch):
        # work guard: sigma0 does not depend on the inclusion, so a repeat
        # call on the same field, load and spec does not recompute it
        solution, _ = pipeline
        field = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        loads = self._count_sigma0(monkeypatch)
        delta_sigma0(LOAD, MATERIAL, self.WARM_INCLUSIONS[0], spec=SPEC,
                     solution=solution, field=field)
        assert len(loads) == 1
        for inc in self.WARM_INCLUSIONS:
            delta_sigma0(LOAD, MATERIAL, inc, spec=QuadratureSpec(),
                         solution=solution, field=field)
        assert len(loads) == 1

    def test_shared_field_matches_fresh_field_bitwise(self, pipeline,
                                                      monkeypatch):
        solution, _ = pipeline
        shared = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        loads = self._count_sigma0(monkeypatch)
        for inc in self.WARM_INCLUSIONS:
            warm = delta_sigma0(LOAD, MATERIAL, inc, spec=SPEC,
                                solution=solution, field=shared)
            fresh = delta_sigma0(
                LOAD, MATERIAL, inc, spec=SPEC, solution=solution,
                field=WeightField(MATERIAL, a=1.0, spec=SPEC,
                                  kernel=solution.kernel))
            assert (warm.delta_sigma0, warm.sigma0_base, warm.sigma0_total,
                    warm.est_error, warm.sign) == (
                fresh.delta_sigma0, fresh.sigma0_base, fresh.sigma0_total,
                fresh.est_error, fresh.sign)
        # one miss on the shared field, one on each fresh one
        assert len(loads) == 1 + len(self.WARM_INCLUSIONS)

    def test_equal_load_built_apart_serves_the_prebuilt_pair(self, pipeline,
                                                             monkeypatch):
        # a built-in load is a value: smooth_exponential() built again
        # equals LOAD, so the solution built for LOAD is not refused and the
        # field's sigma0 memo is read, not recomputed
        solution, _ = pipeline
        field = WeightField(MATERIAL, a=1.0, spec=SPEC, kernel=solution.kernel)
        loads = self._count_sigma0(monkeypatch)
        for inc in self.WARM_INCLUSIONS:
            delta_sigma0(smooth_exponential(), MATERIAL, inc, spec=SPEC,
                         solution=solution, field=field)
        assert len(loads) == 1

    def test_sigma0_base_recomputed_for_a_new_load_or_spec(self, monkeypatch):
        # F -> -F and a second spec on one field: each call changes one of
        # the two from the call before, so each must miss; the labels follow
        # test_label_independent_of_load_sign_and_units
        material = Bimaterial(3.0, 1.0, 0.25)
        inc = InclusionSpec(d=1.0, phi=0.7, alpha=0.3, ell_a=0.05,
                            ell_b=0.01, nu_star=3.0)
        loads = {F: point_triple(F, 1.0, 0.75) for F in (1.0, -1.0)}
        field = WeightField(material, a=1.0)
        solutions = {F: UnperturbedSolution(load, material)
                     for F, load in loads.items()}
        spec_a, spec_b = QuadratureSpec(), QuadratureSpec(rel_tol=1e-9)
        seen = self._count_sigma0(monkeypatch)
        order = ((spec_a, 1.0), (spec_b, 1.0), (spec_b, -1.0), (spec_a, -1.0),
                 (spec_a, 1.0))
        for n, (spec, F) in enumerate(order, start=1):
            r = delta_sigma0(loads[F], material, inc, spec=spec,
                             solution=solutions[F], field=field)
            assert len(seen) == n and seen[-1] is loads[F]
            assert r.sigma0_base == sigma0(loads[F], material, spec,
                                           field=field).sigma0
            assert math.copysign(1.0, r.sigma0_base) == F
            assert r.sign == "shielding"
            assert abs(r.sigma0_total) < abs(r.sigma0_base)

    def test_refused_position_costs_no_sigma0(self, monkeypatch):
        # every position is checked before sigma0_base is served: one 2 deg
        # from the interface raises with no sigma0 solve, from delta_sigma0
        # and from any phi of sign_map (each call cost one at the parent)
        material = Bimaterial(3.0, 1.0, 0.25)
        load = point_triple(1.0, 1.0, 0.75)
        solution = UnperturbedSolution(load, material)
        low = InclusionSpec(d=1.0, phi=math.radians(2.0), alpha=0.3,
                            ell_a=0.05, ell_b=0.01, nu_star=3.0)
        seen = self._count_sigma0(monkeypatch)
        for _ in range(3):
            with pytest.raises(GeometryError, match="guard"):
                delta_sigma0(load, material, low, solution=solution)
        with pytest.raises(GeometryError, match="guard"):
            sign_map(load, material, low, [1.2, low.phi], [0.3],
                     solution=solution)
        assert seen == []

    def test_lower_half_plane_inclusion(self, pipeline):
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=-math.pi / 3, alpha=0.2,
                            ell_a=0.2, ell_b=0.1, nu_star=5.0)
        r = delta_sigma0(LOAD, MATERIAL, inc, solution=solution, field=field)
        assert np.isfinite(r.delta_sigma0) and r.delta_sigma0 != 0.0
        assert r.sign in ("shielding", "amplifying")


@pytest.fixture(scope="module")
def small_map():
    phi = np.radians([30.0, 90.0, 150.0])
    alpha = np.array([0.4, 0.4 + math.pi])
    inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                        ell_b=0.1, nu_star=5.0)
    return sign_map(LOAD, MATERIAL, inc, phi_grid=phi, alpha_grid=alpha,
                    spec=SPEC)


class TestSignMap:

    def test_labels_independent_of_load_sign_and_units(self):
        # the soft inclusion (nu* = 3) shields, the stiff one (0.3)
        # amplifies, whatever the load's sign or the unit of length
        for F, lam in ((1.0, 1.0), (-1.0, 1.0), (1.0, 2.0), (-1.0, 2.0)):
            for nu, label in ((3.0, "shielding"), (0.3, "amplifying")):
                inc = InclusionSpec(d=lam, phi=math.pi / 2, alpha=0.0,
                                    ell_a=0.05 * lam, ell_b=0.2 * 0.05 * lam,
                                    nu_star=nu)
                res = sign_map(point_triple(F, lam, 0.75 * lam),
                               Bimaterial(3.0, 1.0, 0.25 * lam), inc,
                               phi_grid=[0.7, 2.0], alpha_grid=[0.3, 1.4],
                               spec=SPEC)
                assert np.all(res.sign == label), (F, lam, nu, res.sign)

    def test_solution_for_another_material_refused(self):
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        other = UnperturbedSolution(LOAD, Bimaterial(1.0, 1.0, 0.5))
        with pytest.raises(DomainError, match="built for"):
            sign_map(LOAD, MATERIAL, inc, [1.2], [0.3], solution=other)

    def test_empty_alpha_grid(self, pipeline):
        # as an empty phi grid does, an empty alpha grid gives the
        # (phi.size, 0) result
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        res = sign_map(LOAD, MATERIAL, inc, [0.7, 2.0], [], spec=SPEC,
                       solution=pipeline[0])
        assert res.delta.shape == res.est_error.shape == res.sign.shape == (2, 0)

    def test_empty_alpha_grid_runs_no_betti_pass(self, pipeline, monkeypatch):
        # nothing to map: no gradient and no second Betti pass, but every
        # position is still checked (this pair's phi^+ table reaches 1e2)
        calls = []
        monkeypatch.setattr(perturbation, "_delta_from_v",
                            lambda *args: calls.append("betti2"))
        monkeypatch.setattr(UnperturbedSolution, "grad_u0",
                            lambda *args: calls.append("grad_u0"))
        inc = InclusionSpec(d=1.0, phi=1.2, alpha=0.3, ell_a=0.2, ell_b=0.1,
                            nu_star=5.0)
        res = sign_map(LOAD, MATERIAL, inc, [0.7, 2.0], [], spec=SPEC,
                       solution=pipeline[0])
        assert res.delta.shape == (2, 0) and calls == []
        with pytest.raises(GeometryError, match="reach"):
            sign_map(LOAD, MATERIAL, replace(inc, d=500.0), [0.7, 2.0], [],
                     spec=SPEC, solution=pipeline[0])

    def test_alpha_periodicity(self, small_map):
        assert np.allclose(small_map.delta[:, 0], small_map.delta[:, 1],
                           rtol=1e-8, atol=1e-300)

    def test_shape_and_signs(self, small_map):
        assert small_map.delta.shape == (3, 2)
        for s in small_map.sign.ravel():
            assert s in ("shielding", "neutral", "amplifying")

    def test_one_betti_pass_per_phi(self, monkeypatch):
        # work guard: every alpha of one phi shares one complex response
        shapes = []
        real = perturbation._delta_from_v

        def counting(field, v, Y, spec):
            shapes.append(np.shape(v))
            return real(field, v, Y, spec)

        monkeypatch.setattr(perturbation, "_delta_from_v", counting)
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                            ell_b=0.1, nu_star=5.0)
        sign_map(LOAD, MATERIAL, inc, phi_grid=np.radians([30.0, 90.0, 150.0]),
                 alpha_grid=[0.4, 1.3], spec=SPEC)
        assert shapes == [(2, 2)] * 3

    def test_circle_constant_along_alpha(self):
        phi = np.radians([60.0])
        alpha = np.array([0.0, 0.7, 2.1])
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.15,
                            ell_b=0.15, nu_star=5.0)
        res = sign_map(LOAD, MATERIAL, inc, phi_grid=phi, alpha_grid=alpha,
                       spec=SPEC)
        assert np.ptp(res.delta[0]) < 1e-10 * abs(res.delta[0, 0])

    @pytest.mark.parametrize("rigid", [False, True])
    def test_cells_match_delta_sigma0(self, pipeline, rigid):
        # the grids replace the inclusion's own phi and alpha; the rigid
        # flag picks the dipole as in delta_sigma0
        solution, field = pipeline
        inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                            ell_b=0.1, nu_star=5.0, rigid=rigid)
        res = sign_map(LOAD, MATERIAL, inc, phi_grid=[0.7, 2.0],
                       alpha_grid=[0.3], spec=SPEC)
        for i, phi in enumerate((0.7, 2.0)):
            ref = delta_sigma0(LOAD, MATERIAL, replace(inc, phi=phi, alpha=0.3),
                               spec=SPEC, solution=solution, field=field)
            assert res.delta[i, 0] == pytest.approx(
                ref.delta_sigma0, rel=0, abs=res.est_error[i, 0] + ref.est_error)
            assert res.sign[i, 0] == ref.sign

    def test_stiff_soft_circle_maps_flip(self):
        phi = np.radians([45.0, 120.0])
        alpha = np.array([0.0])
        circle = dict(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.15,
                      ell_b=0.15)
        stiff = sign_map(LOAD, MATERIAL, InclusionSpec(nu_star=0.2, **circle),
                         phi_grid=phi, alpha_grid=alpha, spec=SPEC)
        soft = sign_map(LOAD, MATERIAL, InclusionSpec(nu_star=5.0, **circle),
                        phi_grid=phi, alpha_grid=alpha, spec=SPEC)
        assert np.allclose(stiff.delta, -soft.delta, rtol=1e-10)
