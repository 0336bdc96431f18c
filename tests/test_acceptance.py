"""End-to-end acceptance suite: every criterion at its stated tolerance,
one printed verdict line per criterion (run with -s to see them all)."""

import math
import time

import numpy as np
import pytest

from interfrac.kernel import KernelFactors
from interfrac.model import (Bimaterial, InclusionSpec,
                             bimaterial_from_dimensionless, point_triple,
                             smooth_exponential)
from interfrac.numerics import QuadratureSpec
from interfrac.perturbation import (_delta_from_v, delta_sigma0,
                                    dipole_elliptic, dipole_rigid, sign_map)
from interfrac.unperturbed import UnperturbedSolution
from interfrac.weightfn import WeightField, ratio_r, sigma0
from oracles import phi1_minus, wiener_hopf_residual

# regression anchors frozen from the dense-quadrature oracle
# (rel_tol 1e-9, abs_tol 1e-13, truncation stretch x2)
SIGMA0_ANCHOR = 1.16443024394164        # mu*=0, kappa*=1, a=1, b=3/4, F=1
DELTA_ANCHOR = -1.53547211640861e-4     # smooth loads, mu1=3, mu2=1, kappa=1/4,
                                        # d=1, phi=90deg, alpha=0, ell=(0.2,0.1),
                                        # nu*=5


def verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def kernel():
    return KernelFactors(1.0)


@pytest.fixture(scope="module")
def smooth_pipeline():
    material = Bimaterial(3.0, 1.0, 0.25)
    load = smooth_exponential()
    solution = UnperturbedSolution(load, material)
    field = WeightField(material, a=1.0, kernel=solution.kernel)
    return load, material, solution, field


def acceptance_grid(mu0, n=100):
    half = np.geomspace(1e-3 * mu0, 1e3 * mu0, n)
    return np.concatenate([-half[::-1], half])


def test_criterion_01_factorization_identity(kernel):
    t0 = time.time()
    grid = acceptance_grid(kernel.mu0, 100)  # 200 points including mirror
    worst = float(np.max(kernel.factorization_residual(grid)))
    elapsed = time.time() - t0
    verdict("1 kernel factorization", worst < 1e-6 and elapsed < 10.0,
            f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gamma_anchors(kernel):
    err0 = abs(kernel.xi0_plus(0.0) - 1.0 / math.sqrt(math.pi))
    remainders = []
    for x in (100.0 * kernel.mu0, 1000.0 * kernel.mu0):
        beta = -1j * x / (math.pi * kernel.mu0)
        s3 = np.sqrt(beta) + 0.125 / np.sqrt(beta) + beta ** -1.5 / 128.0
        remainders.append(abs(kernel.xi0_plus(x) - s3) * abs(beta) ** 2.5)
    ratio_ok = all(r < 0.05 for r in remainders)
    verdict("2 gamma-factor anchors", err0 < 1e-10 and ratio_ok,
            f"|Xi0+(0)-1/sqrt(pi)|={err0:.1e}, scaled remainders "
            f"{remainders[0]:.4f}/{remainders[1]:.4f} (next coeff 5/1024)")


def test_criterion_03_plemelj_modulus(kernel):
    grid = acceptance_grid(kernel.mu0, 100)
    res = np.abs(np.abs(kernel.xi_star_plus(grid)) ** 2 - kernel.xi_star(grid))
    worst = float(np.max(res / kernel.xi_star(grid)))
    verdict("3 Plemelj modulus", worst < 1e-8, f"max rel {worst:.2e}")


def test_criterion_04_wiener_hopf_residuals():
    material = Bimaterial(3.0, 1.0, 0.25)
    field = WeightField(material, a=1.0)
    grid = acceptance_grid(field.kernel.mu0, 60)
    weight_res = float(np.max(wiener_hopf_residual(field, grid)))

    sol = UnperturbedSolution(point_triple(1.0, 1.0, 0.75), material)
    load_res = 0.0
    for xi in [0.05, 0.4, 1.3, 5.0, 21.0, -0.7, -3.3, -48.0]:
        avg_p, jump_p = sol.load.transforms(np.array([xi]))
        avg_p, jump_p = complex(avg_p[0]), complex(jump_p[0])
        phi1 = phi1_minus(sol, xi)
        lhs = (-material.kappa * sol.kernel.xi(xi) * (sol.phi_plus_load(xi) + avg_p)
               - phi1 - material.kappa * sol.lambda_factor(xi) * jump_p)
        scale = abs(material.kappa * sol.kernel.xi(xi) * avg_p) + abs(phi1)
        load_res = max(load_res, abs(lhs) / scale)
    verdict("4 Wiener-Hopf residuals", weight_res < 1e-8 and load_res < 1e-7,
            f"weight {weight_res:.2e}, load {load_res:.2e}")


def _loglog_slope(load, mu_star, lo, hi, points=5):
    ks = np.geomspace(lo, hi, points)
    vals = [sigma0(load, bimaterial_from_dimensionless(mu_star, k, a=1.0)).sigma0
            for k in ks]
    return float(np.polyfit(np.log(ks), np.log(np.abs(vals)), 1)[0])


def test_criterion_05a_scaling_law_small_kappa():
    t0 = time.time()
    load = point_triple(1.0, 1.0, 0.75)
    slopes = [_loglog_slope(load, ms, 1e-4, 1e-3) for ms in (-0.8, 0.0, 0.8)]
    elapsed = time.time() - t0
    ok = all(abs(s + 0.5) < 0.05 for s in slopes) and elapsed < 300.0
    verdict("5a scaling kappa*->0", ok,
            f"slopes {['%.4f' % s for s in slopes]} vs -0.5, {elapsed:.1f}s")


def _affine_log_fit(load, mu_star, lo, hi, points=5):
    """Fit |sigma0| kappa* = alpha ln kappa* + beta on [lo, hi]: returns the
    fitted alpha, the largest relative fit residual, the largest
    est_error/|sigma0| and the log-log slope of |sigma0|."""
    ks = np.geomspace(lo, hi, points)
    results = [sigma0(load, bimaterial_from_dimensionless(mu_star, k, a=1.0))
               for k in ks]
    vals = np.abs([r.sigma0 for r in results])
    noise = max(r.est_error / v for r, v in zip(results, vals))
    x, y = np.log(ks), vals * ks
    alpha, beta = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(alpha * x + beta - y) / y))
    slope = float(np.polyfit(x, np.log(vals), 1)[0])
    return float(alpha), residual, float(noise), slope


def test_criterion_05b_scaling_law_large_kappa():
    # The point triple puts a net force F on each crack face, so as
    # kappa* -> inf each half-plane carries F alone and its displacement is
    # logarithmic, u ~ (F / pi mu) ln r, cut off only at the interface length
    # 1/mu0 ~ kappa*. With sigma0 = [u](0) / kappa this gives the asymptotic
    # law |sigma0| kappa* = alpha ln kappa* + beta + o(1), with
    # alpha = (F / pi a) (mu1 + mu2)^2 / (mu1 mu2) = 4F / (pi a (1 - mu*^2))
    # for mu1 + mu2 = 2. The local log-log slope is -1 + alpha / (|sigma0|
    # kappa*), about -0.85 on [1e3, 1e4], so it is printed, not asserted.
    # On the stated decade the affine form is checked; on a far decade, where
    # the o(1) term has died out, the fitted alpha must match the analytic
    # one. Every fit point's est_error sits 100x below the tolerance it feeds.
    t0 = time.time()
    F, a = 1.0, 1.0
    load = point_triple(F, a, 0.75)
    near_fit_tol = 2e-3                  # affine residual on [1e3, 1e4]
    far_fit_tol, alpha_tol = 1e-4, 1e-3  # affine residual and alpha on [1e6, 1e7]
    ok, slopes, alpha_devs, near_fits, far_fits = True, [], [], [], []
    for ms in (-0.8, 0.0, 0.8):
        alpha_exact = 4.0 * F / (math.pi * a * (1.0 - ms ** 2))
        _, near_res, near_noise, slope = _affine_log_fit(load, ms, 1e3, 1e4)
        alpha, far_res, far_noise, _ = _affine_log_fit(load, ms, 1e6, 1e7)
        dev = abs(alpha / alpha_exact - 1.0)
        ok = ok and (near_res < near_fit_tol and 100.0 * near_noise < near_fit_tol
                     and far_res < far_fit_tol and dev < alpha_tol
                     and 100.0 * far_noise < min(far_fit_tol, alpha_tol))
        slopes.append(slope)
        alpha_devs.append(dev)
        near_fits.append(near_res)
        far_fits.append(far_res)
    elapsed = time.time() - t0
    verdict("5b scaling kappa*->inf", ok and elapsed < 300.0,
            f"slopes {['%.4f' % s for s in slopes]} on [1e3, 1e4], "
            f"affine residuals {['%.1e' % r for r in near_fits]}; on [1e6, 1e7] "
            f"{['%.1e' % r for r in far_fits]}, |alpha/alpha_exact - 1| "
            f"{['%.1e' % d for d in alpha_devs]}; {elapsed:.1f}s")


def test_criterion_06_stiff_limit_collapse():
    m = bimaterial_from_dimensionless(-0.99, 1.0, a=1.0)
    s34 = sigma0(point_triple(1.0, 1.0, 0.75), m).sigma0
    s14 = sigma0(point_triple(1.0, 1.0, 0.25), m).sigma0
    rel = abs(s34 - s14) / abs(s34)
    verdict("6 stiff-limit collapse", rel < 0.02, f"rel diff {rel:.4f}")


def test_criterion_07_perfect_interface_ratio():
    worst = 0.0
    for load in (point_triple(1.0, 1.0, 0.25), smooth_exponential()):
        for ms2 in (-0.5, 0.5):
            worst = max(worst, abs(ratio_r(0.01, 0.0, ms2, load) - 1.0))
    verdict("7 perfect-interface ratio", worst < 0.05, f"max |r-1| {worst:.4f}")


def test_criterion_08_dipole_consistency():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        la = rng.uniform(0.5, 2.0)
        e = rng.uniform(0.05, 1.0)
        al = rng.uniform(0.0, math.pi)
        rigid = dipole_rigid(la, e * la, al)
        soft = dipole_elliptic(la, e * la, al, 1e-8)
        worst = max(worst, float(np.abs(rigid - soft).max() / np.abs(rigid).max()))
    signs_ok = True
    for nu, sign in ((0.2, 1.0), (5.0, -1.0)):
        ev = np.linalg.eigvalsh(dipole_elliptic(1.0, 0.4, 0.7, nu))
        signs_ok = signs_ok and bool(np.all(sign * ev > 0))
    verdict("8 dipole consistency", worst < 1e-6 and signs_ok,
            f"rigid-vs-elastic worst {worst:.2e}, definiteness {signs_ok}")


def test_criterion_09_perturbation_invariants(smooth_pipeline):
    load, material, solution, field = smooth_pipeline
    spec = QuadratureSpec()
    v = np.array([0.3, -0.7])
    d1, _ = _delta_from_v(field, v, (0.0, 1.0), spec)
    d2, _ = _delta_from_v(field, 2.0 * v, (0.0, 1.0), spec)
    linear_ok = abs(d2 - 2.0 * d1) <= 1e-8 * abs(d2)

    neutral = delta_sigma0(load, material,
                           InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0,
                                         ell_a=0.15, ell_b=0.15, nu_star=1.0),
                           solution=solution, field=field)
    zero_ok = neutral.delta_sigma0 == 0.0

    circle = [delta_sigma0(load, material,
                           InclusionSpec(d=1.0, phi=math.pi / 2, alpha=al,
                                         ell_a=0.15, ell_b=0.15, nu_star=5.0),
                           solution=solution, field=field).delta_sigma0
              for al in (0.0, 1.1)]
    alpha_ok = abs(circle[0] - circle[1]) <= 1e-8 * abs(circle[0])

    flipped = delta_sigma0(load, material,
                           InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0,
                                         ell_a=0.15, ell_b=0.15, nu_star=0.2),
                           solution=solution, field=field).delta_sigma0
    flip_ok = abs(flipped + circle[0]) <= 1e-8 * abs(circle[0])

    res = sign_map(load, material,
                   InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                                 ell_b=0.1, nu_star=5.0),
                   phi_grid=np.radians([40.0, 140.0]),
                   alpha_grid=np.array([0.3, 0.3 + math.pi]))
    period_ok = bool(np.allclose(res.delta[:, 0], res.delta[:, 1], rtol=1e-8))

    verdict("9 perturbation invariants",
            linear_ok and zero_ok and alpha_ok and flip_ok and period_ok,
            f"linear {linear_ok}, nu*=1 {zero_ok}, alpha {alpha_ok}, "
            f"flip {flip_ok}, periodic {period_ok}")


def test_criterion_10_unperturbed_field_oracle(smooth_pipeline):
    load, material, solution, field = smooth_pipeline
    Y = (0.5, 0.8)
    h = 1e-3
    u_c = solution.u0(*Y)
    u_e = solution.u0(Y[0] + h, Y[1])
    u_w = solution.u0(Y[0] - h, Y[1])
    u_n = solution.u0(Y[0], Y[1] + h)
    u_s = solution.u0(Y[0], Y[1] - h)
    lap = (u_e + u_w + u_n + u_s - 4.0 * u_c) / h ** 2
    gmag = math.hypot(*solution.grad_u0(Y))
    harmonic = abs(lap) * h / gmag

    ident = 0.0
    for xi in (0.3, -1.1, 4.0):
        avg_p, jump_p = load.transforms(np.array([xi]))
        avg_p, jump_p = complex(avg_p[0]), complex(jump_p[0])
        phi_p = solution.phi_plus_load(xi)
        a1 = complex(solution.a_coeff(1, xi, phi_p))
        a2 = complex(solution.a_coeff(2, xi, phi_p))
        phi1 = phi1_minus(solution, xi)
        phi2 = phi1 + material.kappa * jump_p
        jump_sigma = -abs(xi) * (material.mu1 * a1 + material.mu2 * a2)
        avg_sigma = 0.5 * abs(xi) * (material.mu2 * a2 - material.mu1 * a1)
        jump_u = (phi1 + material.kappa * (phi_p + avg_p)
                  + 0.5 * material.kappa * jump_p)
        ident = max(ident,
                    abs(jump_sigma - jump_p),
                    abs(avg_sigma - avg_p - phi_p),
                    abs(2 * jump_u - 2 * material.kappa * avg_sigma - phi1 - phi2))
    verdict("10 unperturbed-field oracle", harmonic < 1e-4 and ident < 1e-8,
            f"harmonicity {harmonic:.2e}, transform identities {ident:.2e}")


def test_criterion_11_regression_anchors(smooth_pipeline):
    load, material, solution, field = smooth_pipeline
    s = sigma0(point_triple(1.0, 1.0, 0.75), Bimaterial(1.0, 1.0, 0.5)).sigma0
    s_rel = abs(s - SIGMA0_ANCHOR) / abs(SIGMA0_ANCHOR)

    inc = InclusionSpec(d=1.0, phi=math.pi / 2, alpha=0.0, ell_a=0.2,
                        ell_b=0.1, nu_star=5.0)
    d = delta_sigma0(load, material, inc, solution=solution,
                     field=field).delta_sigma0
    d_rel = abs(d - DELTA_ANCHOR) / abs(DELTA_ANCHOR)
    verdict("11 regression anchors", s_rel < 1e-4 and d_rel < 1e-4,
            f"sigma0 rel {s_rel:.2e}, delta rel {d_rel:.2e}")
