"""Seeded inputs and the library call behind each benchmark workload.

Every workload is a list of cases. A case is a plain dict of numbers (so it
can be stored with its reference value) that the ``build_*`` helpers turn
into library objects; ``Workload.call`` evaluates one case through the
public API and returns ``(value, est_error)``.

Each run evaluates, in order:

* the *panel*: the frozen acceptance anchor plus ``PANEL_SIZE`` cases
  drawn from ``DEFAULT_SEED``, all of which have stored dense-oracle
  references (``references.json``), so ``max_rel_dev`` is the same set of
  inputs on every seed;
* then fresh cases drawn from ``--seed`` until the run's time is up.
"""

import math

import numpy as np
from scipy.stats import qmc

from interfrac import perturbation, weightfn
from interfrac.model import (Bimaterial, InclusionSpec,
                             bimaterial_from_dimensionless, inclusion_centre,
                             point_triple, smooth_exponential)
from interfrac.unperturbed import UnperturbedSolution

DEFAULT_SEED = 0

# frozen from the dense-quadrature oracle in tests/test_acceptance.py
SIGMA0_ANCHOR = {"load": {"kind": "point-triple", "b": 0.75},
                 "material": {"mu1": 1.0, "mu2": 1.0, "kappa": 0.5},
                 "ref": 1.16443024394164}
DELTA_ANCHOR = {"load": {"kind": "smooth-exponential"},
                "material": {"mu1": 3.0, "mu2": 1.0, "kappa": 0.25},
                "inclusion": {"d": 1.0, "phi": math.pi / 2, "alpha": 0.0,
                              "ell_a": 0.2, "ell_b": 0.1, "nu_star": 5.0},
                "ref": -1.53547211640861e-4}

# the delta_warm pair, as tests/test_acceptance.py builds smooth_pipeline
WARM_MATERIAL = DELTA_ANCHOR["material"]
# delta_warm draws d in WARM_D and |phi| in WARM_PHI_DEG, so |y| >= WARM_Y_MIN
WARM_D = (0.8, 1.6)
WARM_PHI_DEG = (5.0, 175.0)
WARM_Y_MIN = WARM_D[0] * math.sin(math.radians(WARM_PHI_DEG[0]))


def build_load(spec):
    if spec["kind"] == "point-triple":
        return point_triple(1.0, 1.0, spec["b"])
    return smooth_exponential()


def build_material(spec):
    return Bimaterial(spec["mu1"], spec["mu2"], spec["kappa"])


def build_inclusion(spec):
    return InclusionSpec(**spec)


def _design(seed, count, dims):
    """`count` points in [0, 1)^dims: a Sobol sequence scrambled by `seed`.
    Its first 2^m points hold one point in each of 2^m equal strata of every
    coordinate, and are balanced jointly too, so every stretch of cases a
    run gets through meets about the same mix of cheap and dear calls."""
    m = max(1, math.ceil(math.log2(max(count, 2))))
    return qmc.Sobol(dims, rng=seed).random_base2(m)[:count]


def _scale(u, lo, hi):
    return lo + (hi - lo) * u


def _material(mu_star, log10_kappa):
    m = bimaterial_from_dimensionless(float(mu_star), 10.0 ** float(log10_kappa))
    return {"mu1": m.mu1, "mu2": m.mu2, "kappa": m.kappa}


class Workload:
    name = ""
    anchor = None

    def cases(self, seed, count):
        """`count` cases drawn from `seed`; the same arguments give the
        same cases."""
        raise NotImplementedError

    def prepare(self, cases):
        """Workload pre-build, counted in setup_s."""

    def call(self, case):
        raise NotImplementedError


class Sigma0Sweep(Workload):
    """sigma0 on a fresh (load, mu_star, kappa_star) draw per call.

    A quarter of the cases are point triples with b/a in (0.05, 0.95), the
    others the smooth load; mu_star is in (-0.9, 0.9) and log10 kappa_star
    in [-4, 4]. A point-triple call costs two to twenty times a smooth-load
    one (its cost grows like 1/(a - b)), so the share is fixed rather than
    drawn at random, and all four are drawn as one design (``_design``)."""

    name = "sigma0_sweep"
    anchor = SIGMA0_ANCHOR

    def cases(self, seed, count):
        u = _design(seed, count, 4)
        out = []
        for mu_u, kappa_u, kind_u, b_u in u:
            load = ({"kind": "point-triple", "b": float(_scale(b_u, 0.05, 0.95))}
                    if kind_u < 0.25 else {"kind": "smooth-exponential"})
            out.append({"load": load,
                        "material": _material(_scale(mu_u, -0.9, 0.9),
                                              _scale(kappa_u, -4.0, 4.0))})
        return out

    def call(self, case):
        r = weightfn.sigma0(build_load(case["load"]),
                            build_material(case["material"]))
        return r.sigma0, r.est_error


class DeltaCold(Workload):
    """Cold delta_sigma0 on the anchor case, repeated: every call builds its
    own UnperturbedSolution and phi^+ table, as a map/field command does.

    Not one of the benchmark's timed workloads: a call costs about 20 s, so
    a run holds one or two and its percentiles are single timings. It is
    kept for traced runs of the table build and as a correctness check."""

    name = "delta_cold"
    anchor = DELTA_ANCHOR

    def cases(self, seed, count):
        return [dict(DELTA_ANCHOR) for _ in range(count)]

    def call(self, case):
        r = perturbation.delta_sigma0(build_load(case["load"]),
                                      build_material(case["material"]),
                                      build_inclusion(case["inclusion"]))
        return r.delta_sigma0, r.est_error


class DeltaWarm(Workload):
    """delta_sigma0 for many inclusions against one prebuilt
    UnperturbedSolution/WeightField pair (smooth load, the anchor material)."""

    name = "delta_warm"
    anchor = DELTA_ANCHOR

    def __init__(self):
        self.load = None
        self.material = None
        self.solution = None
        self.field = None

    def cases(self, seed, count):
        """Inclusions at d in [0.8, 1.6] and |phi| in [5, 175] deg (the
        range of the map command), in either half-plane, at any orientation,
        with ell_a/d in [0.05, 0.3], ell_b/ell_a in [0.2, 1] and nu_star in
        [0.1, 10]. Drawn as one design (``_design``), because a call at
        5 deg from the interface costs about four times one on its normal."""
        u = _design(seed, count, 7)
        d = _scale(u[:, 0], *WARM_D)
        phi = np.radians(_scale(u[:, 1], *WARM_PHI_DEG))
        sign = np.where(u[:, 2] < 0.5, 1.0, -1.0)
        alpha = _scale(u[:, 3], 0.0, math.pi)
        ell_a = d * _scale(u[:, 4], 0.05, 0.3)
        ell_b = ell_a * _scale(u[:, 5], 0.2, 1.0)
        nu_star = 10.0 ** _scale(u[:, 6], -1.0, 1.0)
        return [{"load": DELTA_ANCHOR["load"], "material": WARM_MATERIAL,
                 "inclusion": {"d": float(d[i]), "phi": float(sign[i] * phi[i]),
                               "alpha": float(alpha[i]), "ell_a": float(ell_a[i]),
                               "ell_b": float(ell_b[i]),
                               "nu_star": float(nu_star[i])}}
                for i in range(count)]

    def prepare(self, cases):
        self.load = smooth_exponential()
        self.material = build_material(WARM_MATERIAL)
        self.solution = UnperturbedSolution(self.load, self.material)
        self.field = weightfn.WeightField(self.material, a=1.0,
                                          kernel=self.solution.kernel)
        # Fill the phi^+ table once, for a little below the smallest |y| the
        # draws allow, so that no case rebuilds it. The table's grid follows
        # its extent and the per-call quadrature work follows the grid, so
        # the extent is the same on every seed.
        y_fill = 0.99 * WARM_Y_MIN
        if any(abs(inclusion_centre(build_inclusion(c["inclusion"]))[1]) < y_fill
               for c in cases):
            raise ValueError("a delta_warm case lies below the table's extent")
        self.solution.grad_u0((0.0, y_fill))

    def call(self, case):
        r = perturbation.delta_sigma0(self.load, self.material,
                                      build_inclusion(case["inclusion"]),
                                      solution=self.solution, field=self.field)
        return r.delta_sigma0, r.est_error


WORKLOADS = {w.name: w for w in (Sigma0Sweep, DeltaCold, DeltaWarm)}

# default-seed cases with stored references, evaluated in every run
PANEL_SIZE = {"sigma0_sweep": 16, "delta_cold": 0, "delta_warm": 8}
