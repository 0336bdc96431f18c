"""Domain data: bimaterial plane, interface imperfection, crack-face loads
with closed-form Fourier transforms, and inclusion geometry.

Transform convention: f_bar(xi) = int f(x) e^{i xi x} dx. All loads act on
the crack faces x < 0 and must be self-balanced (jump transform vanishes at
xi = 0); each returns its pair (<p>, [p]) from one callable per domain.
Units are an abstract consistent system; only kappa_star, mu_star, nu_star
and ratios are dimensionless.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, SelfBalanceViolation, UnsupportedLoad


@dataclass(frozen=True)
class Bimaterial:
    """Shear moduli of the two half-planes and the interface compliance."""

    mu1: float
    mu2: float
    kappa: float

    def __post_init__(self):
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise DomainError("shear moduli mu1, mu2 must be positive")
        if not self.kappa > 0:
            raise DomainError("interface compliance kappa must be positive")
        # the product test comes first: it underflows to 0 where mu0 would
        # divide by zero
        if not (self.mu1 * self.mu2 * self.kappa > 0 and 0 < self.mu0 < math.inf):
            raise DomainError("material gives no finite positive "
                              "mu0 = (mu1 + mu2)/(mu1 mu2 kappa)")

    @property
    def mu0(self):
        return (self.mu1 + self.mu2) / (self.mu1 * self.mu2 * self.kappa)

    @property
    def mu_star(self):
        return (self.mu1 - self.mu2) / (self.mu1 + self.mu2)


@dataclass(frozen=True)
class DerivedParams:
    mu0: float
    mu_star: float
    kappa_star: float


def derive_params(m: Bimaterial, a: float) -> DerivedParams:
    """mu0 = (mu1+mu2)/(mu1 mu2 kappa), mu* = (mu1-mu2)/(mu1+mu2),
    kappa* = kappa (mu1+mu2)/a."""
    if not a > 0:
        raise DomainError("reference length a must be positive")
    return DerivedParams(
        mu0=m.mu0,
        mu_star=m.mu_star,
        kappa_star=m.kappa * (m.mu1 + m.mu2) / a,
    )


def bimaterial_from_dimensionless(mu_star, kappa_star, a=1.0):
    """Bimaterial with the requested (mu*, kappa*) at reference length a,
    normalised so mu1 + mu2 = 2. Bimaterial rejects a mu_star outside
    (-1, 1) and a kappa_star that is not positive."""
    return Bimaterial(mu1=1.0 + mu_star, mu2=1.0 - mu_star,
                      kappa=kappa_star * a / 2.0)


def point_load_transforms(F, a, b, xi):
    """Transforms of the balanced point-load triple: one load F at x=-a on
    the upper face against two loads F/2 at x=-a-b, x=-a+b on the lower.

    avg = (F/4)(e^{ib xi}+1)^2 e^{-i(a+b) xi},
    jump = -(F/2)(e^{ib xi}-1)^2 e^{-i(a+b) xi}.
    """
    if not (0 < b < a):
        raise DomainError("point-load triple requires 0 < b < a")
    xi = np.asarray(xi, dtype=float)
    eb = np.exp(1j * b * xi)
    shift = np.exp(-1j * (a + b) * xi)
    avg = 0.25 * F * (eb + 1.0) ** 2 * shift
    jump = -0.5 * F * (eb - 1.0) ** 2 * shift
    return avg, jump


def smooth_load_transforms(xi):
    """Transforms of the smooth asymmetric pair p+ = -(4/9) x e^{2x},
    p- = -x e^{3x} on x < 0: p+_bar = (4/9)/(2+i xi)^2, p-_bar = 1/(3+i xi)^2."""
    xi = np.asarray(xi, dtype=float)
    # reciprocals squared: (2 + i xi)^2 would overflow past |xi| ~ 1e154
    p_plus = (4.0 / 9.0) * (1.0 / (2.0 + 1j * xi)) ** 2
    p_minus = (1.0 / (3.0 + 1j * xi)) ** 2
    return 0.5 * (p_plus + p_minus), p_plus - p_minus


def _smooth_x_parts(x):
    """The x-domain pair (<p>, [p]) of the smooth exponential load."""
    x = np.asarray(x, dtype=float)
    p_plus = -(4.0 / 9.0) * x * np.exp(2.0 * x)
    p_minus = -x * np.exp(3.0 * x)
    return 0.5 * (p_plus + p_minus), p_plus - p_minus


@dataclass(frozen=True)
class _Routine:
    """A built-in load's transforms as a value: the model routine `name`
    called on (*args, xi), looked up at call time so that a wrapper bound to
    the module name sees every evaluation."""

    name: str
    args: tuple = ()

    def __call__(self, xi):
        return globals()[self.name](*self.args, xi)


@dataclass(frozen=True)
class CrackLoad:
    """Self-balanced crack-face loading, described by its transform pair.

    transforms(xi) returns (<p>, [p]) in one call, so that every integrand
    node evaluates the load once; x_parts(x), where given, returns the
    x-domain pair (<p>(x), [p](x)) that k3_perfect integrates. The built-in
    loads carry both as values, so that two loads built alike compare
    equal; a load with its own callables, as custom_transform builds,
    equals only itself.
    oscillations is the point-force table of a point load: one row
    (s_k, a_k, j_k) per force position x = -s_k, sorted by shift, so that
    <p> = sum_k a_k e^{-i s_k xi} and [p] = sum_k j_k e^{-i s_k xi}. Loads
    with an empty table must instead decay like |xi|^{-(1+decay_exponent)}
    so spectral tails can be bounded. reference_length feeds kappa_star.
    """

    kind: str
    transforms: Callable
    F: float = 1.0
    a: Optional[float] = None
    b: Optional[float] = None
    reference_length: float = 1.0
    decay_exponent: Optional[float] = None
    oscillations: Tuple[Tuple[float, float, float], ...] = ()
    x_parts: Optional[Callable] = None

    def __post_init__(self):
        if not 0 < self.reference_length < math.inf:
            raise DomainError("reference length a must be positive and finite")

    @property
    def phase_scale(self):
        """Largest shift of the point-force table (sets panel widths), or 1."""
        return self.oscillations[-1][0] if self.oscillations else 1.0

    def check_self_balance(self):
        j0 = complex(np.asarray(self.transforms(np.array([0.0]))[1])[0])
        if abs(j0) > 1e-12:
            raise SelfBalanceViolation(
                f"jump transform at xi=0 is {j0:.3e}, load is not self-balanced")


def point_triple(F, a, b):
    """Point load F at x=-a (upper face) balanced by F/2 at x=-a-b, x=-a+b."""
    if not (0 < b < a):
        raise DomainError("point-load triple requires 0 < b < a")
    oscillations = ((a - b, 0.25 * F, -0.5 * F), (a, 0.5 * F, F),
                    (a + b, 0.25 * F, -0.5 * F))
    return CrackLoad(
        kind="point-triple",
        transforms=_Routine("point_load_transforms", (F, a, b)),
        F=F, a=a, b=b, reference_length=a, oscillations=oscillations)


def smooth_exponential(reference_length=1.0):
    """The smooth asymmetric exponential pair (see smooth_load_transforms)."""
    return CrackLoad(
        kind="smooth-exponential",
        transforms=_Routine("smooth_load_transforms"),
        reference_length=reference_length, decay_exponent=1.0,
        x_parts=_smooth_x_parts)


def custom_transform(transform_avg, transform_jump, decay_exponent,
                     reference_length=1.0):
    """Wrap a user-supplied transform pair; decay_exponent delta > 0 declares
    the |xi|^{-(1+delta)} falloff the spectral tails rely on. Each transform
    must take an array of xi and return one value per element; one that
    cannot is refused with UnsupportedLoad."""
    if not decay_exponent > 0:
        raise DomainError("decay_exponent must be positive")

    def transforms(xi):
        return transform_avg(xi), transform_jump(xi)

    probe = np.array([0.0, 1.0])
    contract = "custom transforms must map an array of xi to one value per element"
    try:
        shapes = [np.shape(v) for v in transforms(probe)]
    except (TypeError, ValueError) as exc:  # float(array), `if array:`
        raise UnsupportedLoad(f"{contract}: {exc}") from exc
    if shapes != [probe.shape] * 2:
        raise UnsupportedLoad(
            f"{contract}; on shape {probe.shape} they returned {shapes}")

    load = CrackLoad(
        kind="custom-transform", transforms=transforms,
        reference_length=reference_length, decay_exponent=decay_exponent)
    load.check_self_balance()
    return load


@dataclass(frozen=True)
class InclusionSpec:
    """Elliptic (or rigid) inclusion: centre at distance d and angle phi from
    the interface, semi-axes ell_a >= ell_b oriented at alpha, stiffness
    contrast nu_star = mu_out/mu_in (ignored when rigid)."""

    d: float
    phi: float
    alpha: float
    ell_a: float
    ell_b: float
    nu_star: Optional[float] = None
    rigid: bool = False

    def __post_init__(self):
        if not self.d > 0:
            raise DomainError("inclusion distance d must be positive")
        if not (0 < abs(self.phi) < math.pi):
            raise DomainError("phi must lie in (0, pi) or (-pi, 0)")
        if not (self.ell_a >= self.ell_b > 0):
            raise DomainError("semi-axes must satisfy ell_a >= ell_b > 0")
        if not self.rigid:
            if self.nu_star is None or not self.nu_star > 0:
                raise DomainError("nu_star must be positive for an elastic inclusion")
        if not self.epsilon < 1:
            raise DomainError("epsilon = ell_a/d must be < 1")

    @property
    def epsilon(self):
        return self.ell_a / self.d


def inclusion_centre(s: InclusionSpec):
    """Centre Y = (d cos phi, d sin phi)."""
    return (s.d * math.cos(s.phi), s.d * math.sin(s.phi))
