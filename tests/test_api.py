"""The public API: every name in interfrac.__all__, pinned, so that adding
or removing one takes an edit here."""

import interfrac

API = [
    "Bimaterial", "ConfigError", "CrackLoad", "DerivedParams", "DomainError",
    "GeometryError", "InclusionSpec", "InterfracError", "KernelFactors",
    "NonConvergence", "NonFiniteSample", "PerturbationResult",
    "QuadratureSpec", "SelfBalanceViolation", "Sigma0Result",
    "SignMapResult", "UnperturbedSolution", "UnsupportedLoad", "WeightField",
    "bimaterial_from_dimensionless", "custom_transform", "delta_sigma0",
    "derive_params", "dipole_elliptic", "dipole_for", "dipole_rigid",
    "inclusion_centre", "k3_perfect", "point_load_transforms",
    "point_triple", "ratio_r", "sigma0", "sign_map", "smooth_exponential",
    "smooth_load_transforms",
]


def test_all_is_pinned_and_resolves():
    assert interfrac.__all__ == API and len(API) == 35
    namespace = {}
    exec("from interfrac import *", namespace)
    for name in API:
        assert getattr(interfrac, name) is namespace[name], name
