"""Bounded-amplitude truncation family used to test with bounded fields.

The cutoff profile psi is 1 on [0, 1], 0 beyond 2, and interpolates on
[1, 2] with the quintic smoothstep, so 0 <= -psi' <= 15/8 <= 2.  Stacking
rescaled copies gives Psi_L(s) = sum_{l=1..L} psi(2^-l s), which equals L
on [0, 2], vanishes past 2^(L+1), and has at most one non-plateau summand
at any s (the annuli 2^l < s <= 2^(l+1) are disjoint) -- that is what makes
the gradient bound uniform in L.  h_L integrates Psi_L(theta) theta and
H_L(xi) = h_L(|xi|).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GalerkinSpace, synthesize, velocity_gradient

# quintic smoothstep 6t^5 - 15t^4 + 10t^3 on [0, 1]
_SMOOTH = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
# psi(u) * u on the transition, as a polynomial in t = u - 1:
# (1 - smoothstep(t)) * (t + 1)
_PROFILE_TIMES_U = np.polynomial.polynomial.polymul(
    np.array([1.0, 0.0, 0.0, -10.0, 15.0, -6.0]),
    np.array([1.0, 1.0]),
)
_PROFILE_TIMES_U_INT = np.polynomial.polynomial.polyint(_PROFILE_TIMES_U)
_TRANSITION_MASS = float(np.polynomial.polynomial.polyval(1.0, _PROFILE_TIMES_U_INT))


@dataclass(frozen=True)
class TruncationFamily:
    L: int

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("level count must be nonnegative")


def eval_psi(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("profile argument must be nonnegative")
    t = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - np.polynomial.polynomial.polyval(t, _SMOOTH)


def eval_psi_prime(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mask = (s > 1.0) & (s < 2.0)
    t = s[mask] - 1.0
    out[mask] = -np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyder(_SMOOTH)
    )
    return out


def eval_Psi_L(fam: TruncationFamily, s) -> np.ndarray:
    """sum_{l=1..L} psi(2^-l s)."""
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    for level in range(1, fam.L + 1):
        total += eval_psi(2.0 ** -level * s)
    return total


def eval_Psi_L_prime(fam: TruncationFamily, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    for level in range(1, fam.L + 1):
        delta = 2.0 ** -level
        total += delta * eval_psi_prime(delta * s)
    return total


def _profile_mass(x) -> np.ndarray:
    """int_0^x psi(u) u du, exact piecewise polynomial evaluation."""
    x = np.asarray(x, dtype=float)
    plateau = np.minimum(x, 1.0) ** 2 / 2.0
    t = np.clip(x - 1.0, 0.0, 1.0)
    transition = np.polynomial.polynomial.polyval(t, _PROFILE_TIMES_U_INT)
    return plateau + transition


def eval_h_L(fam: TruncationFamily, s) -> np.ndarray:
    """int_0^s Psi_L(theta) theta dtheta via per-level closed forms."""
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    for level in range(1, fam.L + 1):
        scale = 2.0 ** level
        total += scale ** 2 * _profile_mass(s / scale)
    return total


def eval_H_L(fam: TruncationFamily, xi) -> np.ndarray:
    return eval_h_L(fam, np.linalg.norm(np.asarray(xi, dtype=float), axis=-1))


def chain_rule_constant() -> float:
    """sup_s |s Psi_L'(s)|, independent of L by annulus disjointness.

    Equals sup_{t in [1,2]} t |psi'(t)| (one active level), bounded by
    2 * 15/8 = 15/4 <= 4.
    """
    t = np.linspace(1.0, 2.0, 20001)
    return float(np.max(t * np.abs(eval_psi_prime(t))))


def gradient_bound_ratio(fam: TruncationFamily, space: GalerkinSpace, coeffs: np.ndarray) -> float:
    """Max over the grid of |Psi_L'(|u|) grad|u| (x) u| / |grad u|.

    This is the chain-rule part of grad(Psi_L(|u|) u); its uniform-in-L
    bound is what lets the truncated field act as a test function.
    """
    u = synthesize(space, coeffs)
    grad = velocity_gradient(space, coeffs)
    grad_norm = np.sqrt(np.sum(grad ** 2, axis=(-2, -1)))
    mag = np.linalg.norm(u, axis=-1)
    safe = (grad_norm > 1e-8) & (mag > 1e-14)
    if not np.any(safe):
        return 0.0
    # grad|u| = (grad u)^T u / |u|
    grad_mag = np.einsum("xij,xi->xj", grad, u) / np.where(mag > 1e-14, mag, 1.0)[:, None]
    psi_prime = eval_Psi_L_prime(fam, mag)
    outer_norm = np.abs(psi_prime) * np.linalg.norm(grad_mag, axis=-1) * mag
    ratio = outer_norm[safe] / grad_norm[safe]
    return float(np.max(ratio))
