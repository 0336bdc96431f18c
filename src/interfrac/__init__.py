"""Crack-tip traction constants for a semi-infinite crack on a soft
imperfect interface under self-balanced anti-plane loads, via Wiener-Hopf
factorization and Betti-identity quadrature, with the first-order
perturbation from a small elliptic (or rigid) inclusion."""

from .errors import (ConfigError, DomainError, GeometryError, InterfracError,
                     NonConvergence, NonFiniteSample, PoleError,
                     SelfBalanceViolation, TailBoundExceeded, UnsupportedLoad)
from .kernel import KernelFactors, xi_minus_half, xi_plus_half
from .model import (Bimaterial, CrackLoad, DerivedParams, InclusionSpec,
                    bimaterial_from_dimensionless, custom_transform,
                    derive_params, inclusion_centre, point_load_transforms,
                    point_triple, smooth_exponential, smooth_load_transforms)
from .numerics import QuadratureSpec, integrate_adaptive, log_gamma
from .perturbation import (PerturbationResult, SignMapResult,
                           boundary_layer_dy, delta_sigma0, dipole_elliptic,
                           dipole_for, dipole_rigid, sign_map)
from .unperturbed import FieldSample, UnperturbedSolution
from .weightfn import (Sigma0Result, WeightField, k3_perfect, ratio_r,
                       sigma0)

__version__ = "0.1.0"

__all__ = [
    "Bimaterial", "ConfigError", "CrackLoad", "DerivedParams", "DomainError",
    "FieldSample", "GeometryError", "InclusionSpec", "InterfracError",
    "KernelFactors", "NonConvergence", "NonFiniteSample",
    "PerturbationResult", "PoleError", "QuadratureSpec",
    "SelfBalanceViolation", "Sigma0Result", "SignMapResult",
    "TailBoundExceeded", "UnperturbedSolution", "UnsupportedLoad",
    "WeightField", "bimaterial_from_dimensionless",
    "boundary_layer_dy", "custom_transform", "delta_sigma0",
    "derive_params", "dipole_elliptic", "dipole_for", "dipole_rigid",
    "inclusion_centre", "integrate_adaptive", "k3_perfect", "log_gamma",
    "point_load_transforms", "point_triple", "ratio_r", "sigma0", "sign_map",
    "smooth_exponential", "smooth_load_transforms", "xi_minus_half",
    "xi_plus_half",
]
