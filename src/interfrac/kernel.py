"""Factorization of the Wiener-Hopf kernel Xi(xi) = 1 + mu0/|xi|.

The kernel splits as Xi = (xi/(xi_+^{1/2} xi_-^{1/2})) Xi_* Xi_0 with
Xi_0 = coth(xi/mu0) = (pi mu0/xi) Xi_0^+ Xi_0^- (a gamma-function ratio) and
Xi_* = Xi_*^+ Xi_*^- factorised by a Cauchy integral of ln Xi_*. On the real
axis the plus factor follows from the Plemelj formula,

    Xi_*^+(xi) = sqrt(Xi_*(xi)) exp(-i xi H(|xi|)/pi),
    H(s) = PV int_0^inf ln Xi_*(t) / (t^2 - s^2) dt,

so |Xi_*^+|^2 = Xi_* holds identically and only the phase depends on H.
H is scale covariant, H(xi; mu0) = Hhat(xi/mu0)/mu0, so a single
dimensionless table (built once per process by _kernels.pv_cauchy_batch,
which remains the direct per-point rule) serves every mu0. The combined
factors are B^+/- = Xi_0^+/- Xi_*^+/- / xi_+/-^{1/2} with pi mu0 B^+ B^- = Xi.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import _kernels
from .errors import DomainError
from .numerics import log_gamma

_TABLE_LO = 1e-9
_TABLE_HI = 1e9
_PHASE_TABLE = None


def _phase_table():
    # dimensionless Hhat(x) = H(x; mu0=1) on a 250-points-per-decade log grid
    global _PHASE_TABLE
    if _PHASE_TABLE is None:
        x = np.geomspace(_TABLE_LO, _TABLE_HI, 4501)
        _PHASE_TABLE = PchipInterpolator(
            np.log(x), _kernels.pv_cauchy_batch(x, 1.0), extrapolate=False)
    return _PHASE_TABLE


def xi_plus_half(x):
    """xi_+^{1/2} = sqrt(-i xi), branch cut on the negative real axis."""
    return np.sqrt(-1j * np.asarray(x, dtype=complex))


def xi_minus_half(x):
    """xi_-^{1/2} = sqrt(+i xi)."""
    return np.sqrt(1j * np.asarray(x, dtype=complex))


class KernelFactors:
    """Factorization machinery for one mu0; immutable after construction."""

    def __init__(self, mu0):
        if not mu0 > 0:
            raise DomainError("mu0 must be positive")
        self.mu0 = float(mu0)
        _phase_table()

    # -- scalar kernel and auxiliary function ---------------------------------

    def _checked(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr == 0.0):
            raise DomainError("kernel functions are singular at xi = 0")
        return arr

    def xi(self, x):
        """Xi(xi) = 1 + mu0/|xi|."""
        arr = self._checked(x)
        out = 1.0 + self.mu0 / np.abs(arr)
        return out if np.ndim(x) else float(out)

    def ln_xi_star(self, x):
        arr = self._checked(x)
        out = _kernels.ln_xi_star(np.abs(arr), self.mu0)
        return out if np.ndim(x) else float(out)

    def xi_star(self, x):
        """Xi_*(xi) = tanh(|xi|/mu0)(1 + mu0/|xi|); even, -> 1 at both ends."""
        out = np.exp(self.ln_xi_star(x))
        return out if np.ndim(x) else float(out)

    # -- Cauchy integral and the Plemelj boundary values ----------------------

    def cauchy_integral(self, x):
        """H(|xi|) = PV int_0^inf ln Xi_*(t)/(t^2 - xi^2) dt."""
        arr = self._checked(x)
        s = np.atleast_1d(np.abs(arr) / self.mu0)
        out = np.empty_like(s)
        table = _phase_table()
        below = s < _TABLE_LO
        above = s > _TABLE_HI
        inside = ~(below | above)
        if np.any(inside):
            out[inside] = table(np.log(s[inside]))
        if np.any(below):
            # Hhat ~ -ln x + C near 0 (phase x*Hhat is < 1e-8 out here)
            c0 = table(math.log(_TABLE_LO)) + math.log(_TABLE_LO)
            out[below] = c0 - np.log(s[below])
        if np.any(above):
            # Hhat ~ (c - ln x)/x^2 at infinity
            c1 = table(math.log(_TABLE_HI)) * _TABLE_HI ** 2 + math.log(_TABLE_HI)
            out[above] = (c1 - np.log(s[above])) / s[above] ** 2
        out = (out / self.mu0).reshape(np.shape(arr))
        return out if np.ndim(x) else float(out)

    def xi_star_plus(self, x):
        """Boundary value from above of the plus factor of Xi_*."""
        arr = self._checked(x)
        phase = np.exp(-1j * arr * self.cauchy_integral(arr) / math.pi)
        out = np.sqrt(self.xi_star(arr)) * phase
        return out if np.ndim(x) else complex(out)

    def xi_star_minus(self, x):
        """Boundary value from below; the conjugate of xi_star_plus on R."""
        out = np.conjugate(self.xi_star_plus(x))
        return out if np.ndim(x) else complex(out)

    # -- gamma-ratio factors ---------------------------------------------------

    def xi0_plus(self, z):
        """Xi_0^+(z) = Gamma(1 - iz/(pi mu0)) / Gamma(1/2 - iz/(pi mu0)),
        regular and non-zero for Im z > -pi mu0 / 2."""
        arr = np.asarray(z, dtype=complex)
        if np.any(arr.imag <= -0.5 * math.pi * self.mu0):
            raise DomainError("xi0_plus is defined for Im z > -pi mu0/2")
        w = -1j * arr / (math.pi * self.mu0)
        out = np.exp(log_gamma(1.0 + w) - log_gamma(0.5 + w))
        return out if np.ndim(z) else complex(out)

    def xi0_minus(self, z):
        """Xi_0^-(z) = Xi_0^+(-z), regular for Im z < pi mu0 / 2."""
        arr = np.asarray(z, dtype=complex)
        if np.any(arr.imag >= 0.5 * math.pi * self.mu0):
            raise DomainError("xi0_minus is defined for Im z < pi mu0/2")
        w = 1j * arr / (math.pi * self.mu0)
        out = np.exp(log_gamma(1.0 + w) - log_gamma(0.5 + w))
        return out if np.ndim(z) else complex(out)

    # -- combined factors ------------------------------------------------------

    def b_plus(self, x):
        """B^+ = Xi_0^+ Xi_*^+ / xi_+^{1/2} on the real axis."""
        arr = self._checked(x)
        out = self.xi0_plus(arr) * self.xi_star_plus(arr) / xi_plus_half(arr)
        return out if np.ndim(x) else complex(out)

    def b_minus(self, x):
        """B^- = Xi_0^- Xi_*^- / xi_-^{1/2} on the real axis."""
        arr = self._checked(x)
        out = self.xi0_minus(arr) * self.xi_star_minus(arr) / xi_minus_half(arr)
        return out if np.ndim(x) else complex(out)

    def factorization_residual(self, x):
        """|pi mu0 B^+ B^- / Xi - 1| (should vanish to quadrature accuracy)."""
        arr = self._checked(x)
        prod = math.pi * self.mu0 * self.b_plus(arr) * self.b_minus(arr)
        out = np.abs(prod / self.xi(arr) - 1.0)
        return out if np.ndim(x) else float(out)
