"""Power-law stress tensor, its convex potential, and the stabilizer.

S(eps) = nu0 * (1 + |eps|)^(p-2) * eps with |.| the Frobenius norm;
shear-thinning for p < 2, Newtonian at p = 2, shear-thickening for p > 2.
The stabilizer s(v) = alpha * |v|^(q-2) * v makes the approximate solution
an admissible test function and requires q >= max{2p', 3} when alpha > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FieldError


def minimal_q(p: float) -> float:
    """Smallest admissible stabilization exponent, max{2p/(p-1), 3}."""
    return max(2.0 * p / (p - 1.0), 3.0)


@dataclass(frozen=True)
class ConstitutiveParams:
    p: float
    nu0: float = 1.0
    q: float | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise FieldError("p", f"growth exponent must satisfy p > 1, got {self.p}")
        q_min = minimal_q(self.p)
        if not math.isfinite(q_min):
            raise FieldError("p", f"growth exponent p={self.p} overflows the minimal "
                                  f"stabilization exponent 2p/(p-1)")
        if self.nu0 <= 0.0:
            raise FieldError("nu0", f"viscosity coefficient must be positive, got {self.nu0}")
        if self.alpha < 0.0:
            raise FieldError("alpha", f"stabilization weight must be nonnegative, got {self.alpha}")
        if self.q is None:
            object.__setattr__(self, "q", q_min)
        if self.alpha > 0.0 and self.q < q_min - 1e-12:
            raise FieldError("q", f"stabilization exponent q={self.q} below admissible "
                                  f"minimum max(2p', 3) = {q_min} for p={self.p}")


def _check_symmetric(eps: np.ndarray) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if np.max(np.abs(eps - np.swapaxes(eps, -1, -2))) > 1e-10:
        raise ValueError("strain input must be symmetric")
    return eps


def _frobenius(eps: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(eps ** 2, axis=(-2, -1)))


def eval_stress(params: ConstitutiveParams, eps: np.ndarray) -> np.ndarray:
    """nu0 * (1 + |eps|)^(p-2) * eps, elementwise over leading axes."""
    eps = _check_symmetric(eps)
    mag = _frobenius(eps)
    scale = params.nu0 * (1.0 + mag) ** (params.p - 2.0)
    return scale[..., None, None] * eps


def stress_potential(params: ConstitutiveParams, eps: np.ndarray) -> np.ndarray:
    """Convex potential F with dF/deps = S, in closed form.

    F(eps) = nu0 * int_0^|eps| (1+s)^(p-2) s ds
           = nu0 * ((1+t)^(p-1) * ((p-1)t - 1) + 1) / ((p-1)p),  t = |eps|.
    """
    eps = _check_symmetric(eps)
    t = _frobenius(eps)
    p = params.p
    return params.nu0 * ((1.0 + t) ** (p - 1.0) * ((p - 1.0) * t - 1.0) + 1.0) / ((p - 1.0) * p)


def monotonicity_gap(params: ConstitutiveParams, eps1: np.ndarray, eps2: np.ndarray) -> np.ndarray:
    """(S(eps1) - S(eps2)) : (eps1 - eps2), nonnegative by convexity of F."""
    diff_s = eval_stress(params, eps1) - eval_stress(params, eps2)
    diff_e = np.asarray(eps1, dtype=float) - np.asarray(eps2, dtype=float)
    return np.sum(diff_s * diff_e, axis=(-2, -1))


def eval_stabilizer(params: ConstitutiveParams, v: np.ndarray) -> np.ndarray:
    """alpha * |v|^(q-2) * v; continuous at v = 0 since q >= 3."""
    v = np.asarray(v, dtype=float)
    mag = np.linalg.norm(v, axis=-1)
    scale = params.alpha * mag ** (params.q - 2.0)
    return scale[..., None] * v


def stabilizer_potential(params: ConstitutiveParams, v: np.ndarray) -> np.ndarray:
    """(alpha/q) * |v|^q, the convex potential of the stabilizer."""
    v = np.asarray(v, dtype=float)
    return params.alpha / params.q * np.linalg.norm(v, axis=-1) ** params.q


def coercivity_constant(params: ConstitutiveParams) -> float:
    # nu0 * 2^(1-p) makes S:eps >= c|eps|^p - c; for |eps| < 1 the right
    # side is nonpositive, for |eps| >= 1 use (1+t)^(p-2) >= (2t)^(p-2)
    # (p < 2) resp. >= t^(p-2) (p >= 2).
    return params.nu0 * 2.0 ** (1.0 - params.p)


def growth_bounds_check(params: ConstitutiveParams, eps: np.ndarray) -> bool:
    """Upper growth |S| <= nu0(1+|eps|)^(p-1) and coercivity S:eps >= c|eps|^p - c."""
    eps = _check_symmetric(eps)
    mag = _frobenius(eps)
    s = eval_stress(params, eps)
    s_mag = _frobenius(s)
    upper_ok = np.all(s_mag <= params.nu0 * (1.0 + mag) ** (params.p - 1.0) + 1e-12)
    c = coercivity_constant(params)
    dissipation = np.sum(s * eps, axis=(-2, -1))
    lower_ok = np.all(dissipation >= c * mag ** params.p - c - 1e-12)
    return bool(upper_ok and lower_ok)
