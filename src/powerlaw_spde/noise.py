"""Cylindrical Wiener process and the superposition noise operator.

W = sum_k e_k beta_k with independent scalar Brownian motions beta_k; the
noise operator acts pointwise by Phi(v) e_k = g_k(v(x)).  Three built-in
coefficient families cover additive, multiplicative-linear and smooth
nonlinear noise, each satisfying the linear-growth and gradient bounds

    sum_k |g_k(xi)| <= L (1 + |xi|),   sum_k |grad g_k(xi)|^2 <= L,

as well as sup_k k^2 |g_k(xi)|^2 <= c (1 + |xi|^2), with constants L and c
documented per family.  The infinite sum is truncated at K modes; with the
default per-mode scale a_k = 2^-k the tail of every series is geometric.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import GalerkinSpace

FAMILIES = ("additive", "linear", "smooth_norm")


@dataclass(frozen=True)
class NoiseModel:
    family: str
    K: int = 16
    d: int = 2
    amplitude: float = 1.0  # the c0 prefactor of the additive family
    per_mode_scale: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.K < 1:
            raise ValueError("need at least one Wiener mode")
        if self.per_mode_scale is None:
            scale = 2.0 ** -np.arange(1, self.K + 1)
        else:
            scale = np.asarray(self.per_mode_scale, dtype=float)
            if scale.shape != (self.K,):
                raise ValueError("per_mode_scale length must equal K")
        object.__setattr__(self, "per_mode_scale", scale)

    @property
    def growth_constant(self) -> float:
        """L in the linear-growth bound, per family with a_k = per_mode_scale."""
        a_sum = float(np.sum(self.per_mode_scale))
        if self.family == "additive":
            return self.amplitude * a_sum
        if self.family == "linear":
            return max(a_sum, self.d * float(np.sum(self.per_mode_scale ** 2)))
        # smooth_norm: |g_k| = a_k sqrt(1+|xi|^2) <= a_k (1+|xi|),
        # |grad g_k|^2 = a_k^2 |xi|^2/(1+|xi|^2) <= a_k^2
        return max(self.amplitude * a_sum,
                   self.amplitude ** 2 * float(np.sum(self.per_mode_scale ** 2)))


def _all_g(model: NoiseModel, xi: np.ndarray) -> np.ndarray:
    """g_1..g_K at velocity values xi (..., d), stacked: shape (K, ..., d).

    The additive and smooth_norm fields of mode k point along the unit
    vector u_k = e_((k-1) mod d).
    """
    xi = np.asarray(xi, dtype=float)
    a = model.per_mode_scale.reshape((model.K,) + (1,) * xi.ndim)
    if model.family == "linear":
        return a * xi
    u = np.eye(model.d)[np.arange(model.K) % model.d]
    u = u.reshape((model.K,) + (1,) * (xi.ndim - 1) + (model.d,))
    if model.family == "additive":
        return np.broadcast_to(a * model.amplitude * u, (model.K,) + xi.shape).copy()
    mag_sq = np.sum(xi ** 2, axis=-1, keepdims=True)
    return a * model.amplitude * np.sqrt(1.0 + mag_sq) * u


def eval_g(model: NoiseModel, k: int, xi: np.ndarray) -> np.ndarray:
    """Coefficient function g_k evaluated at velocity values xi.

    xi may be a single d-vector or an array (..., d); the result has the
    same shape.
    """
    if not 1 <= k <= model.K:
        raise ValueError(f"mode index {k} out of range 1..{model.K}")
    return _all_g(model, xi)[k - 1]


def apply_phi(model: NoiseModel, space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """Per-mode grid fields Phi(v) e_k, shape (K, M^d, d), from the samples
    of v, shape (M^d, d)."""
    if values.shape != (space.M ** space.d, space.d):
        raise ValueError("field shape inconsistent with space")
    return _all_g(model, values)


def hilbert_schmidt_norm_sq(space: GalerkinSpace, phi_fields: np.ndarray) -> float:
    """sum_k int |Phi(v) e_k|^2 dx from the output of apply_phi."""
    return float(space.quad_weight * np.sum(phi_fields ** 2))


def u0_norm(coeff_seq: np.ndarray) -> float:
    """Norm of sum_k alpha_k e_k in the auxiliary space: sqrt(sum alpha_k^2/k^2)."""
    alpha = np.asarray(coeff_seq, dtype=float)
    k = np.arange(1, alpha.size + 1)
    return float(np.sqrt(np.sum(alpha ** 2 / k ** 2)))


@dataclass(frozen=True)
class WienerPath:
    """Precomputed Brownian increments, reproducible from (seed, step, mode).

    Each step's K-vector of N(0, dt) draws is generated from an independent
    counter-derived stream, so paths for different steps can be produced in
    any order or in parallel.
    """

    seed: int
    dt: float
    K: int
    n_steps: int
    increments: np.ndarray = field(repr=False)

    @classmethod
    def generate(cls, seed: int, dt: float, K: int, n_steps: int) -> "WienerPath":
        if dt <= 0.0:
            raise ValueError("time step must be positive")
        inc = np.empty((n_steps, K))
        for step in range(n_steps):
            rng = np.random.default_rng((int(seed), int(step)))
            inc[step] = rng.standard_normal(K) * np.sqrt(dt)
        return cls(seed=seed, dt=dt, K=K, n_steps=n_steps, increments=inc)

    @classmethod
    def from_increments(cls, seed: int, dt: float, increments: np.ndarray) -> "WienerPath":
        increments = np.asarray(increments, dtype=float)
        return cls(seed=seed, dt=dt, K=increments.shape[1],
                   n_steps=increments.shape[0], increments=increments)

    def coarsen(self, factor: int) -> "WienerPath":
        """Aggregate consecutive increments; couples refinements of one path."""
        n = (self.n_steps // factor) * factor
        agg = self.increments[:n].reshape(-1, factor, self.K).sum(axis=1)
        return WienerPath.from_increments(self.seed, self.dt * factor, agg)


def growth_bound_holds(model: NoiseModel, xi: np.ndarray, L: float | None = None) -> bool:
    """Check sum_k |g_k(xi)| <= L (1+|xi|) for a batch of states (..., d)."""
    if L is None:
        L = model.growth_constant
    xi = np.asarray(xi, dtype=float)
    total = np.sum(np.linalg.norm(_all_g(model, xi), axis=-1), axis=0)
    mag = np.linalg.norm(xi, axis=-1)
    return bool(np.all(total <= L * (1.0 + mag) + 1e-12))


def mode_decay_bound_holds(model: NoiseModel, xi: np.ndarray, c: float | None = None) -> bool:
    """Check sup_k k^2 |g_k(xi)|^2 <= c (1+|xi|^2)."""
    k_sq = np.arange(1, model.K + 1) ** 2
    if c is None:
        # k^2 a_k^2 <= max_k k^2 4^-k = 1/4 at k = 1 or 2 for the default
        # scale; amplitude and the family profile enter quadratically.
        c = float(np.max(k_sq * model.per_mode_scale ** 2)) * max(1.0, model.amplitude ** 2)
    xi = np.asarray(xi, dtype=float)
    mag_sq = np.sum(xi ** 2, axis=-1)
    g_sq = np.sum(_all_g(model, xi) ** 2, axis=-1)  # (K, ...)
    worst = np.max(k_sq.reshape((model.K,) + (1,) * mag_sq.ndim) * g_sq, axis=0)
    return bool(np.all(worst <= c * (1.0 + mag_sq) + 1e-12))
