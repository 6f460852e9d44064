"""Divergence-free Fourier eigenbasis of the Stokes operator on the torus.

The domain is the periodic box [0, 2*pi)^d with d in {2, 3}.  Every basis
function is a single real trigonometric mode

    w(x) = sqrt(2) / (2*pi)^(d/2) * {cos|sin}(xi . x) * pol,

where xi is a nonzero integer wavevector taken from a canonical half-space
(one representative per {xi, -xi} pair) and pol is a unit polarization
vector orthogonal to xi.  These modes are exactly divergence-free,
L2-orthonormal, and eigenfunctions of the Stokes operator with eigenvalue
|xi|^2.  The zero wavevector is excluded, so all representable velocity
fields have zero spatial mean.

Fields are sampled on a uniform collocation grid with M points per axis;
inner products are trapezoidal sums, which are exact for trigonometric
polynomials resolved by the grid.  Because each mode is a scalar profile
times a constant vector, the basis is stored as two (N, M^d) scalar
profile tables plus per-mode constants, and every transform is a matrix
product on those tables (see GalerkinSpace).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def _is_canonical(xi: tuple[int, ...]) -> bool:
    """One representative per {xi, -xi}: first nonzero component positive."""
    for c in xi:
        if c != 0:
            return c > 0
    return False


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(v) -> tuple[float, ...]:
    norm = math.hypot(*v)
    return tuple(c / norm for c in v)


def _polarizations(xi: tuple[int, ...]) -> list[tuple[float, ...]]:
    """Unit vectors orthogonal to xi, deterministically oriented.

    d=2: the counterclockwise rotation of xi.  d=3: cross products with the
    coordinate axis least aligned with xi, then the completing vector.
    """
    v = [float(c) for c in xi]
    if len(v) == 2:
        return [_unit((-v[1], v[0]))]
    axis = [0.0, 0.0, 0.0]
    axis[min(range(3), key=lambda i: abs(v[i]))] = 1.0
    p1 = _unit(_cross(v, axis))
    return [p1, _unit(_cross(v, p1))]


@dataclass(frozen=True)
class WaveMode:
    """A single real divergence-free Fourier mode."""

    xi: tuple[int, ...]
    parity: str  # "cos" or "sin"
    pol: tuple[float, ...]
    pol_index: int = 0

    def __post_init__(self):
        if all(c == 0 for c in self.xi):
            raise ValueError("wavevector must be nonzero")
        if self.parity not in ("cos", "sin"):
            raise ValueError(f"unknown parity {self.parity!r}")
        dot = sum(p * c for p, c in zip(self.pol, self.xi))
        if abs(dot) > 1e-12:
            raise ValueError("polarization not orthogonal to wavevector")
        norm = sum(p * p for p in self.pol)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("polarization not unit length")

    @property
    def eigenvalue(self) -> float:
        """Stokes eigenvalue, |xi|^2 on the torus."""
        return float(sum(c * c for c in self.xi))


def _enumerate_modes(d: int, count: int) -> list[WaveMode]:
    """The first `count` modes in (eigenvalue, xi, parity, pol) order.

    The ball of wavevectors grows until it holds `count` modes; the modes
    are ordered by key first, so only the retained ones are constructed.
    """
    n_pol = d - 1
    radius = 1
    while True:
        vecs = [vec for vec in itertools.product(range(-radius, radius + 1), repeat=d)
                if _is_canonical(vec) and sum(c * c for c in vec) <= radius * radius]
        if 2 * n_pol * len(vecs) >= count:
            break
        radius += 1
    keys = sorted((sum(c * c for c in vec), vec, parity, i)
                  for vec in vecs for parity in ("cos", "sin") for i in range(n_pol))[:count]
    pols = {vec: _polarizations(vec) for vec in dict.fromkeys(key[1] for key in keys)}
    return [WaveMode(vec, parity, pols[vec][i], i) for _, vec, parity, i in keys]


@dataclass(frozen=True)
class GalerkinSpace:
    """Immutable span of the first N Stokes eigenmodes plus its grid.

    Every mode is a scalar profile times a constant vector, so the basis is
    stored in factored form: the value profiles a_n(x) = amp {cos|sin}(xi_n.x)
    and derivative profiles b_n(x) on the collocation grid, plus the
    per-mode polarizations pol_n and gradient tensors G_n = pol_n (x) xi_n.
    Then w_n = a_n pol_n, grad w_n = b_n G_n and eps(w_n) = b_n sym(G_n),
    and every transform is a GEMM on an (N, M^d) profile table followed by
    a small contraction with the per-mode constants.  The dense tables
    mode_fields, mode_grads and mode_eps are lazy views for oracles.
    """

    d: int
    N: int
    M: int
    modes: tuple[WaveMode, ...]
    points: np.ndarray = field(repr=False)          # (M^d, d)
    value_profiles: np.ndarray = field(repr=False)  # (N, M^d); w_n = a_n pol_n
    deriv_profiles: np.ndarray = field(repr=False)  # (N, M^d); grad w_n = b_n G_n
    pols: np.ndarray = field(repr=False)            # (N, d)
    grad_tensors: np.ndarray = field(repr=False)    # (N, d, d); [n, i, j] = pol_i xi_j
    quad_weight: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.eigenvalue for m in self.modes])

    @cached_property
    def strain_tensors(self) -> np.ndarray:
        """sym(G_n), so that eps(w_n) = b_n sym(G_n); shape (N, d, d)."""
        return 0.5 * (self.grad_tensors + np.swapaxes(self.grad_tensors, -1, -2))

    @cached_property
    def wavevectors(self) -> np.ndarray:
        """Integer wavevectors of the grid in np.fft order, shape (M,)*d + (d,)."""
        k = (np.arange(self.M) + self.M // 2) % self.M - self.M // 2
        return np.stack(np.meshgrid(*([k] * self.d), indexing="ij"), axis=-1)

    @cached_property
    def mode_fields(self) -> np.ndarray:
        """Dense samples of all modes, shape (N, M^d, d)."""
        return self.value_profiles[:, :, None] * self.pols[:, None, :]

    @cached_property
    def mode_grads(self) -> np.ndarray:
        """Dense gradients, shape (N, M^d, d, d); [..., i, j] = d_j w_i."""
        return self.deriv_profiles[:, :, None, None] * self.grad_tensors[:, None]

    @cached_property
    def mode_eps(self) -> np.ndarray:
        """Dense symmetric gradients of all modes, shape (N, M^d, d, d)."""
        return self.deriv_profiles[:, :, None, None] * self.strain_tensors[:, None]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.M,) * self.d


def build_space(d: int, N: int, M: int) -> GalerkinSpace:
    """Construct the Galerkin space with N modes on an M^d grid.

    M must satisfy the oversampling bound M >= 2*kmax + 1 with kmax the
    largest wavevector component among the retained modes, so that all
    quadratic products of modes are integrated exactly.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    if N < 1:
        raise ValueError("need at least one mode")
    modes = _enumerate_modes(d, N)
    kmax = max(max(abs(c) for c in m.xi) for m in modes)
    if M < 2 * kmax + 1:
        raise ValueError(
            f"grid resolution M={M} below oversampling bound {2 * kmax + 1} "
            f"for max wavevector component {kmax}"
        )

    axis = TWO_PI * np.arange(M) / M
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)  # (M^d, d)

    amp = np.sqrt(2.0) / TWO_PI ** (d / 2.0)
    xis = np.array([m.xi for m in modes], dtype=float)
    pols = np.array([m.pol for m in modes])
    phase = xis @ points.T  # (N, M^d)
    is_cos = np.array([m.parity == "cos" for m in modes])[:, None]
    cos, sin = np.cos(phase), np.sin(phase)
    values = amp * np.where(is_cos, cos, sin)
    derivs = amp * np.where(is_cos, -sin, cos)

    return GalerkinSpace(
        d=d, N=N, M=M, modes=tuple(modes), points=points,
        value_profiles=values, deriv_profiles=derivs, pols=pols,
        grad_tensors=pols[:, :, None] * xis[:, None, :],
        quad_weight=(TWO_PI / M) ** d,
    )


def suggest_grid(d: int, N: int, factor: int = 3) -> int:
    """Grid resolution resolving products of `factor` modes exactly."""
    kmax = max(max(abs(c) for c in m.xi) for m in _enumerate_modes(d, N))
    return factor * kmax + 1


def _check_coeffs(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.N,):
        raise ValueError(f"expected {space.N} coefficients, got shape {coeffs.shape}")
    return coeffs


def _tensor_field(space: GalerkinSpace, coeffs: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """sum_n c_n b_n(x) T_n at every grid point, shape (M^d, d, d)."""
    d = space.d
    weighted = coeffs[:, None] * tensors.reshape(space.N, d * d)
    return (space.deriv_profiles.T @ weighted).reshape(-1, d, d)


def synthesize(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Samples of sum_k c_k w_k on the collocation grid, shape (M^d, d)."""
    coeffs = _check_coeffs(space, coeffs)
    return space.value_profiles.T @ (coeffs[:, None] * space.pols)


def analyze(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """L2 projections <field, w_k> of a sampled field (M^d, d) by trapezoidal
    quadrature."""
    if values.shape != (space.M ** space.d, space.d):
        raise ValueError(f"field shape {values.shape} inconsistent with space")
    return space.quad_weight * np.einsum(
        "nd,nd->n", space.value_profiles @ values, space.pols)


def analyze_gradient(space: GalerkinSpace, values: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """<F, grad w_k> for a tensor field F of shape (M^d, d, d); <F, eps(w_k)>
    when symmetric."""
    tensors = space.strain_tensors if symmetric else space.grad_tensors
    moments = space.deriv_profiles @ values.reshape(len(values), -1)  # (N, d*d)
    return space.quad_weight * np.einsum(
        "nk,nk->n", moments, tensors.reshape(space.N, -1))


def velocity_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Full gradient of the synthesized field, shape (M^d, d, d)."""
    return _tensor_field(space, _check_coeffs(space, coeffs), space.grad_tensors)


def symmetric_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Shear-rate tensor eps(v) at every grid point, shape (M^d, d, d)."""
    return _tensor_field(space, _check_coeffs(space, coeffs), space.strain_tensors)


def l2_norm(space: GalerkinSpace, values: np.ndarray) -> float:
    return float(np.sqrt(space.quad_weight * np.sum(values ** 2)))
