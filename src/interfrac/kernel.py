"""Factorization of the Wiener-Hopf kernel Xi(xi) = 1 + mu0/|xi|.

The kernel splits as Xi = (xi/(xi_+^{1/2} xi_-^{1/2})) Xi_* Xi_0 with
Xi_0 = coth(xi/mu0) = (pi mu0/xi) Xi_0^+ Xi_0^- (a gamma-function ratio) and
Xi_* = Xi_*^+ Xi_*^- factorised by a Cauchy integral of ln Xi_*. On the real
axis the plus factor follows from the Plemelj formula,

    Xi_*^+(xi) = sqrt(Xi_*(xi)) exp(-i xi H(|xi|)/pi),
    H(s) = PV int_0^inf ln Xi_*(t) / (t^2 - s^2) dt,

so |Xi_*^+|^2 = Xi_* holds identically and only the phase depends on H.
H is scale covariant, H(xi; mu0) = Hhat(xi/mu0)/mu0, so a single
dimensionless table serves every mu0: a PCHIP interpolant in ln x through
4501 nodes. It is built once per process, with every node evaluated in one
batched pass of _kernels.pv_cauchy_batch, the direct rule: 0.15-0.23 s on a
shared 2-core x86-64 host (numpy backend), against 0.53-0.92 s for one
target at a time. The combined factors are
B^+/- = Xi_0^+/- Xi_*^+/- / xi_+/-^{1/2} with pi mu0 B^+ B^- = Xi, where
xi_+^{1/2} = sqrt(-i xi) and xi_-^{1/2} = sqrt(i xi).

Xi is real and even, so each minus factor has one formula, its plus
partner's: Xi_0^-(z) = Xi_0^+(-z), and on the real axis Xi_*^- and
B^- = conj B^+ are the conjugates of Xi_*^+ and B^+.

On the real axis B^+ is evaluated in polar form. The identity with
B^- = conj B^+ fixes its modulus, |B^+|^2 = (|x| + mu0)/(pi mu0 |x|), and
its phase is (pi/4) sgn x - x H(|x|)/pi - theta(x/(pi mu0)) with
theta(y) = arg Gamma(1 + iy)/Gamma(1/2 + iy) (DLMF 5.4.3-5.4.4 give
|Xi_0^+|^2 = (x/(pi mu0)) coth(x/mu0)). theta needs no log-gamma: the
asymptotic series from |y| = 8 on, the recurrence shifted to 8 + iy below
(_ratio_phase). With s = |x|/mu0 that phase is sgn x (pi/4 - Phi(s)),
Phi(s) = s Hhat(s)/pi + theta(s/pi), and _phase serves Phi for all s > 0:
on [1e-9, 1e9] from a numerics.LogTable on the PCHIP intervals, built with
the Hhat table (within 5e-15 of the PCHIP Hhat and theta, so it carries its
PCHIP error, which no est_error covers), outside from the end rules of Hhat
and the expansions of theta. The product route Xi_0^+ Xi_*^+ / xi_+^{1/2},
with its two log-gammas, agrees within 8e-15 relative on 1e-13 ... 1e13
mu0; it stays in xi0_plus and xi_star_plus, and factorization_residual
pairs it with the polar B^+.

Each public KernelFactors method checks its input once, at entry (finite,
non-zero); the factors compose from unchecked internals (_phase, _cauchy,
the _kernels entry points), and the gamma ratio needs no pole guard.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import bernoulli

from . import _kernels
from .errors import DomainError
from .numerics import LogTable

_TABLE_LO = 1e-9
_TABLE_HI = 1e9
_PHASE_TABLE = None
# d_n = (B_{n+1}(1) - B_{n+1}(1/2)) / (n (n+1)) = B_{n+1} (2 - 2^-n) / (n (n+1))
# for odd n = 1 .. 17 (1/8, -1/192, 1/640, ...): the coefficients of w^-n in
# ln Gamma(1 + w) - ln Gamma(1/2 + w) - (1/2) ln w
_RATIO_SERIES = np.array([b * (2.0 - 2.0 ** -n) / (n * (n + 1))
                          for n, b in zip(range(1, 18, 2), bernoulli(18)[2::2])])
# the series is used from |Im w| = 8 on; below, _ratio_phase shifts to 8 + iy
# through the products (k + 1/2)(k + 1), k = 0 .. 7
_SHIFT = 8.0
_SHIFT_PRODUCT = np.array([(k + 0.5) * (k + 1.0) for k in range(8)])


def _phase_table():
    """(Hhat(x) = H(x; mu0=1), the PCHIP interpolant in ln x through 4501
    nodes of [1e-9, 1e9], the c0 and c1 of its end rules (_hhat_end), the
    LogTable of Phi(s) = s Hhat(s)/pi + theta(s/pi) on the 4500 intervals
    of that grid). Hhat is a cubic in ln s on each interval, and s and
    theta are smooth there, so the quintics match Phi to rounding."""
    global _PHASE_TABLE
    if _PHASE_TABLE is None:
        x = np.geomspace(_TABLE_LO, _TABLE_HI, 4501)
        table = PchipInterpolator(
            np.log(x), _kernels.pv_cauchy_batch(x, 1.0), extrapolate=False)
        c0 = table(math.log(_TABLE_LO)) + math.log(_TABLE_LO)
        c1 = table(math.log(_TABLE_HI)) * _TABLE_HI ** 2 + math.log(_TABLE_HI)
        _PHASE_TABLE = table, c0, c1, LogTable(
            lambda u: (np.exp(u) * table(u) / math.pi
                       + _ratio_phase(np.exp(u) / math.pi)),
            _TABLE_LO, _TABLE_HI, x.size - 1)
    return _PHASE_TABLE


def _hhat_end(s, ln_s, c0, c1):
    """Hhat(s) = H(s; mu0=1) off the table, by its end rules: c0 - ln s
    below 1e-9 and (c1 - ln s)/s^2 above 1e9 (s squared in two steps, as
    s * s overflows past 1e154), with c0 and c1 from _phase_table and ln s
    from the caller, finite where s has under- or overflowed."""
    out = c0 - ln_s
    above = s > 1.0
    out[above] = (c1 - ln_s[above]) / s[above] / s[above]
    return out


def _phase(s):
    """Phi(s) = s Hhat(s)/pi + theta(s/pi) for s >= 0, the real-axis phase
    of B^+: on [1e-9, 1e9] the LogTable of _phase_table. Off it Hhat takes
    its end rules and theta(y) its expansions: 2 ln 2 y below, as
    psi(1) - psi(1/2) = 2 ln 2 and the next term is under (s/pi)^3 < 3e-29,
    and pi/4 + _series_phase(y) above. Phi tends to 0 and pi/4 at the ends,
    so an s that under- or overflowed reads as the least or largest float."""
    _, c0, c1, table = _phase_table()
    shape = np.shape(s)
    s = np.atleast_1d(s)
    # off the table the lookup reads an end value, which the end rules replace
    out = table(s)
    below = s < _TABLE_LO
    if np.count_nonzero(below):
        sb = np.maximum(s[below], 5e-324)
        out[below] = sb * (_hhat_end(sb, np.log(sb), c0, c1)
                           + math.log(4.0)) / math.pi
    above = s > _TABLE_HI
    if np.count_nonzero(above):
        sa = np.minimum(s[above], np.finfo(float).max)
        out[above] = (sa * _hhat_end(sa, np.log(sa), c0, c1) / math.pi
                      + 0.25 * math.pi + _series_phase(sa / math.pi))
    return out.reshape(shape)


def _series_phase(y):
    """Im sum_{n odd} d_n (iy)^-n for real |y| >= 8, the phase that the
    asymptotic series adds to sqrt(iy) in Gamma(1 + iy) / Gamma(1/2 + iy):
    with w = iy, sum_n d_n w^-n = -(i/y) sum_k d_(2k+1) t^k, t = -1/y^2, a
    real polynomial in t (1/y squared, as y * y overflows past 1e154)."""
    t = -(1.0 / y) ** 2
    acc = _RATIO_SERIES[-1] * t
    for d in _RATIO_SERIES[-2:0:-1]:
        acc += d
        acc *= t
    return -(acc + _RATIO_SERIES[0]) / y


def _shifted_phase(y):
    """theta(y) for real y through the recurrence shifted to 8 + iy (see
    _ratio_phase); the series converges from |8 + iy| >= 8 on."""
    s = y * y + 0.5j * y
    prod = s + _SHIFT_PRODUCT[0]
    for c in _SHIFT_PRODUCT[1:]:
        prod *= s + c
    inv = 1.0 / (_SHIFT + 1j * y)
    q = inv * inv
    acc = _RATIO_SERIES[-1] * q
    for d in _RATIO_SERIES[-2:0:-1]:
        acc += d
        acc *= q
    acc += _RATIO_SERIES[0]
    acc *= inv
    return np.angle(prod) + 0.5 * np.arctan2(y, _SHIFT) + acc.imag


def _ratio_phase(y):
    """theta(y) = arg Gamma(1 + iy) / Gamma(1/2 + iy) for real y (odd in y),
    without log-gamma. From |y| = 8 on it is (pi/4) sgn y plus the series
    phase. Below 8 the recurrence Gamma(z + 8) = Gamma(z) prod_k (z + k)
    shifts both gammas to 8 + iy:

        theta(y) = arg prod_{k=0..7} ((k + 1/2)(k + 1) + y^2 + iy/2)
                   + Im[(1/2) ln(8 + iy) + sum_n d_n (8 + iy)^-n],

    the product being that of (k + 1/2 + iy)(k + 1 - iy), whose factors have
    positive real parts and whose arguments sum to less than 0.83. Within
    4e-16 absolute of 40-digit values from |y| = 1e-8 to 1e10."""
    shape = np.shape(y)
    y = np.atleast_1d(y)
    big = np.abs(y) >= _SHIFT
    out = np.empty_like(y)
    yb = y[big]
    out[big] = np.copysign(0.25 * math.pi, yb) + _series_phase(yb)
    out[~big] = _shifted_phase(y[~big])
    return out.reshape(shape)


def _gamma_ratio(w, real):
    """Gamma(1 + w) / Gamma(1/2 + w) from log_gamma_raw, which guards no
    pole and needs none: xi0_plus refuses Im z <= -pi mu0/2, which keeps
    Re(1/2 + w) > 0. For real z, w = -+iz/(pi mu0) is imaginary, and from
    |w| = 8 on, where the difference of two log-gammas of size |w| ln|w|
    would lose eps |w| ln|w| (2e-6 relative at |w| = 1e10), the log-ratio
    is its asymptotic series (1/2) ln w + sum_{n odd} d_n w^-n (DLMF
    5.11.13), whose nine terms reach 2e-16 at |w| = 8, and the ratio is
    sqrt(w) exp(i _series_phase(Im w))."""
    if not real:
        return np.exp(_kernels.log_gamma_raw(1.0 + w)
                      - _kernels.log_gamma_raw(0.5 + w))
    shape = np.shape(w)
    w = np.atleast_1d(w)
    big = np.abs(w.imag) >= _SHIFT
    out = np.empty(w.shape, dtype=complex)
    small = ~big
    ws = w[small]
    out[small] = np.exp(_kernels.log_gamma_raw(1.0 + ws)
                        - _kernels.log_gamma_raw(0.5 + ws))
    wb = w[big]
    out[big] = np.sqrt(wb) * np.exp(1j * _series_phase(wb.imag))
    return out.reshape(shape)


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
        if not np.isfinite(arr).all():
            raise DomainError("kernel functions need a finite xi")
        if (arr == 0.0).any():
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
        out = self._cauchy(self._checked(x))
        return out if np.ndim(x) else float(out)

    def _cauchy(self, arr):
        # cauchy_integral on a checked array; off the table ln s = ln|x| - ln mu0
        table, c0, c1, _ = _phase_table()
        a = np.atleast_1d(np.abs(arr))
        with np.errstate(over="ignore"):
            s = a / self.mu0
        ends = (s < _TABLE_LO) | (s > _TABLE_HI)
        out = np.empty(s.shape)
        out[~ends] = table(np.log(s[~ends]))
        out[ends] = _hhat_end(s[ends], np.log(a[ends]) - math.log(self.mu0), c0, c1)
        return (out / self.mu0).reshape(np.shape(arr))

    def xi_star_plus(self, x):
        """Boundary value from above of the plus factor of Xi_*."""
        arr = self._checked(x)
        phase = np.exp(-1j * arr * self._cauchy(arr) / math.pi)
        out = np.sqrt(np.exp(_kernels.ln_xi_star(np.abs(arr), self.mu0))) * phase
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
        real = not np.iscomplexobj(z)
        if not real and (arr.imag <= -0.5 * math.pi * self.mu0).any():
            raise DomainError("Xi_0^+(z) is defined for Im z > -pi mu0/2, "
                              "Xi_0^-(z) = Xi_0^+(-z) for Im z < pi mu0/2")
        out = _gamma_ratio(-1j * arr / (math.pi * self.mu0), real)
        return out if np.ndim(z) else complex(out)

    def xi0_minus(self, z):
        """Xi_0^-(z) = Xi_0^+(-z), regular for Im z < pi mu0 / 2."""
        return self.xi0_plus(-np.asarray(z))

    # -- combined factors ------------------------------------------------------

    def b_plus(self, x):
        """B^+ = Xi_0^+ Xi_*^+ / xi_+^{1/2} on the real axis, in polar form:
        |B^+|^2 = (|x| + mu0)/(pi mu0 |x|) from pi mu0 B^+ B^- = Xi with
        B^- = conj B^+, and the phase sgn x (pi/4 - Phi(|x|/mu0)) of
        xi_+^{1/2}, Xi_*^+ and Xi_0^+ = conj[Gamma(1 + iy)/Gamma(1/2 + iy)],
        Phi from _phase at every x. On [1e-9, 1e9] mu0 Phi is within 5e-15 of
        the PCHIP Hhat and theta it was fitted to; the PCHIP error of Hhat
        itself is in no est_error."""
        arr = self._checked(x)
        a = np.abs(arr)
        # one square root per factor: (|x| + mu0)/(pi mu0) overflows where
        # |x|/mu0 does, and the whole quotient at subnormal |x|
        modulus = np.sqrt(a + self.mu0) / math.sqrt(math.pi * self.mu0) / np.sqrt(a)
        with np.errstate(over="ignore"):
            # an |x|/mu0 that overflows is inf, which _phase reads as the
            # largest float
            s = a / self.mu0
        phase = np.sign(arr) * (0.25 * math.pi - _phase(s))
        out = modulus * np.exp(1j * phase)
        return out if np.ndim(x) else complex(out)

    def b_minus(self, x):
        """B^- = Xi_0^- Xi_*^- / xi_-^{1/2} = conj B^+ on the real axis."""
        out = np.conjugate(self.b_plus(x))
        return out if np.ndim(x) else complex(out)

    def factorization_residual(self, x):
        """|pi mu0 B^+ B^- / Xi - 1| with the polar B^+ and the product-route
        B^- = Xi_0^- Xi_*^- / xi_-^{1/2} (its gamma ratio by log-gamma below
        |w| = 8). The polar B^+ meets the identity with its own conjugate by
        construction, so the pairing is what makes the residual measure: it
        reads the disagreement of the two phases, _phase against log-gamma
        and the Plemelj factor, at roundoff level. Both read the PCHIP Hhat
        and its end rules, so the error of Hhat, which no est_error covers,
        does not show here."""
        arr = self._checked(x)
        b_minus = (self.xi0_minus(arr) * self.xi_star_minus(arr)
                   / np.sqrt(1j * arr))
        prod = math.pi * self.mu0 * self.b_plus(arr) * b_minus
        out = np.abs(prod / self.xi(arr) - 1.0)
        return out if np.ndim(x) else float(out)
