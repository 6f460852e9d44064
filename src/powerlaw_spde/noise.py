"""Cylindrical Wiener process and the superposition noise operator.

W = sum_k e_k beta_k with independent scalar Brownian motions beta_k; the
noise operator acts pointwise by Phi(v) e_k = g_k(v(x)).  Three built-in
coefficient families cover additive, multiplicative-linear and smooth
nonlinear noise, each satisfying the linear-growth and gradient bounds

    sum_k |g_k(xi)| <= L (1 + |xi|),   sum_k |grad g_k(xi)|^2 <= L,

as well as sup_k k^2 |g_k(xi)|^2 <= c (1 + |xi|^2), with constants L and c
documented per family.  The infinite sum is truncated at K modes with the
per-mode scale a_k = 2^-k, so the tail of every series is geometric.  The
coefficients act pointwise on R^d: d is read from the values they act on.

Every family is a truncated Q-Wiener noise whose K fields are mixtures of
r <= d generator fields (Lord, Powell & Shardlow, An Introduction to
Computational Stochastic PDEs, CUP 2014, ch. 10):

    Phi(v) e_k = sum_r U[r, k] G_r(v),

where G is the model's own first r modes, g_1 = a_1 v (r = 1) for the
linear family and g_j = a_j amplitude sqrt(1 + |v|^2) e_j (additive:
a_j amplitude e_j), j <= r = min(K, d), for the other two, and U[j, k] =
a_k / a_j [j = (k-1) mod r].  generators(model, d) returns G and U, so the
Galerkin diffusion and the pressure noise are built from r fields instead
of K.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .basis import FieldError, GalerkinSpace, check_samples

FAMILIES = ("additive", "linear", "smooth_norm")


@dataclass(frozen=True)
class NoiseModel:
    family: str
    K: int = 16
    amplitude: float = 1.0  # the c0 prefactor of the additive and smooth_norm families

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FieldError("family", f"unknown noise family {self.family!r}")
        if self.K < 1:
            raise FieldError("K", f"need at least one Wiener mode, got {self.K}")

    @cached_property
    def per_mode_scale(self) -> np.ndarray:
        """a_k = 2^-k, k = 1..K."""
        scale = 2.0 ** -np.arange(1, self.K + 1)
        scale.flags.writeable = False
        return scale

    def growth_constant(self, d: int) -> float:
        """L in the linear-growth bound on R^d, per family with a_k = per_mode_scale."""
        a_sum = float(np.sum(self.per_mode_scale))
        if self.family == "additive":
            return self.amplitude * a_sum
        if self.family == "linear":
            return max(a_sum, d * float(np.sum(self.per_mode_scale ** 2)))
        # smooth_norm: |g_k| = a_k sqrt(1+|xi|^2) <= a_k (1+|xi|),
        # |grad g_k|^2 = a_k^2 |xi|^2/(1+|xi|^2) <= a_k^2
        return max(self.amplitude * a_sum,
                   self.amplitude ** 2 * float(np.sum(self.per_mode_scale ** 2)))


@cache
def generators(model: NoiseModel, d: int) -> tuple[NoiseModel, np.ndarray]:
    """(G, U): the model's own first r modes G = NoiseModel(family, K=r,
    amplitude), r = 1 for the linear family and min(K, d) otherwise, and the
    constant (r, K) mixing U[r, k] = a_k / a_r with Phi(v) e_k = sum_r U[r, k]
    G_r(v) on R^d.  Every a_k is a power of two, so the product is g_k bit
    for bit."""
    r = 1 if model.family == "linear" else min(model.K, d)
    gen = NoiseModel(model.family, K=r, amplitude=model.amplitude)
    k = np.arange(model.K)
    mix = np.zeros((r, model.K))
    mix[k % r, k] = model.per_mode_scale / gen.per_mode_scale[k % r]
    mix.flags.writeable = False
    return gen, mix


def _all_g(model: NoiseModel, xi: np.ndarray) -> np.ndarray:
    """g_1..g_K at velocity values xi (..., d), stacked: shape (K, ..., d).

    The additive and smooth_norm fields of mode k point along the unit
    vector u_k = e_((k-1) mod d).
    """
    xi = np.asarray(xi, dtype=float)
    a = model.per_mode_scale.reshape((model.K,) + (1,) * xi.ndim)
    if model.family == "linear":
        return a * xi
    d = xi.shape[-1]
    u = np.eye(d)[np.arange(model.K) % d]
    u = u.reshape((model.K,) + (1,) * (xi.ndim - 1) + (d,))
    if model.family == "additive":
        return np.broadcast_to(a * model.amplitude * u, (model.K,) + xi.shape).copy()
    mag_sq = np.sum(xi ** 2, axis=-1, keepdims=True)
    return a * model.amplitude * np.sqrt(1.0 + mag_sq) * u


def apply_phi(model: NoiseModel, space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """Per-mode grid fields Phi(v) e_k, shape (K, M^d, ..., d), from the
    samples of v, shape (M^d, ..., d) (batch axes between grid and component)."""
    check_samples(space, values)
    return _all_g(model, values)


def hilbert_schmidt_norm_sq(space: GalerkinSpace, phi_fields: np.ndarray) -> float:
    """sum_k int |Phi(v) e_k|^2 dx from the output of apply_phi."""
    return float(space.quad_weight * np.sum(phi_fields ** 2))


@dataclass(frozen=True)
class WienerPath:
    """Precomputed Brownian increments, reproducible from (seed, step, mode).

    Each step's K-vector of N(0, dt) draws is generated from an independent
    counter-derived stream, so paths for different steps can be produced in
    any order or in parallel.  The increments (n_steps, K) fix both sizes.
    """

    seed: int
    dt: float
    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "increments", np.asarray(self.increments, dtype=float))
        if self.increments.ndim != 2:
            raise ValueError(f"increments must be (n_steps, K), got shape {self.increments.shape}")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def K(self) -> int:
        return self.increments.shape[1]

    @classmethod
    def generate(cls, seed: int, dt: float, K: int, n_steps: int) -> "WienerPath":
        if dt <= 0.0:
            raise ValueError("time step must be positive")
        inc = np.empty((n_steps, K))
        for step in range(n_steps):
            rng = np.random.default_rng((int(seed), int(step)))
            inc[step] = rng.standard_normal(K) * np.sqrt(dt)
        return cls(seed=seed, dt=dt, increments=inc)

    def coarsen(self, factor: int) -> "WienerPath":
        """Aggregate consecutive increments; couples refinements of one path."""
        n = (self.n_steps // factor) * factor
        agg = self.increments[:n].reshape(-1, factor, self.K).sum(axis=1)
        return WienerPath(seed=self.seed, dt=self.dt * factor, increments=agg)


def growth_bound_holds(model: NoiseModel, xi: np.ndarray) -> bool:
    """Check sum_k |g_k(xi)| <= L (1+|xi|), L = model.growth_constant(d), for states (..., d)."""
    xi = np.asarray(xi, dtype=float)
    total = np.sum(np.linalg.norm(_all_g(model, xi), axis=-1), axis=0)
    mag = np.linalg.norm(xi, axis=-1)
    return bool(np.all(total <= model.growth_constant(xi.shape[-1]) * (1.0 + mag) + 1e-12))


def mode_decay_bound_holds(model: NoiseModel, xi: np.ndarray) -> bool:
    """Check sup_k k^2 |g_k(xi)|^2 <= c (1+|xi|^2)."""
    k_sq = np.arange(1, model.K + 1) ** 2
    # k^2 a_k^2 <= max_k k^2 4^-k = 1/4 at k = 1 or 2 for the default
    # scale; amplitude and the family profile enter quadratically.
    c = float(np.max(k_sq * model.per_mode_scale ** 2)) * max(1.0, model.amplitude ** 2)
    xi = np.asarray(xi, dtype=float)
    mag_sq = np.sum(xi ** 2, axis=-1)
    g_sq = np.sum(_all_g(model, xi) ** 2, axis=-1)  # (K, ...)
    worst = np.max(k_sq.reshape((model.K,) + (1,) * mag_sq.ndim) * g_sq, axis=0)
    return bool(np.all(worst <= c * (1.0 + mag_sq) + 1e-12))
