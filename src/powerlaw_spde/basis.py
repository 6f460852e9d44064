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
polynomials resolved by the grid.  The modes themselves are plain arrays,
one row per mode: wavevectors, parities and polarizations.  Because each
mode is a scalar profile times a constant vector, the basis is stored as
two (N, M^d) scalar profile tables plus per-mode constants, and every
transform is a matrix product on those tables (see GalerkinSpace).

The profile tables are the real and imaginary parts of exp(i xi . x),
built as products of rows of fourier_table(M), one row per axis at
xi_j mod M.  The table reduces each phase k*m mod M before exp, so no
entry carries the round-off of a large phase; the per-axis DFT matrices of
the pressure operators are read from the same table.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


@functools.cache
def fourier_table(M: int) -> np.ndarray:
    """exp(2 pi i k m / M) for k, m in 0..M-1, shape (M, M), symmetric and
    read-only; the phase k*m is reduced mod M before exp."""
    k = np.arange(M)
    table = np.exp(2j * np.pi * (np.outer(k, k) % M) / M)
    table.flags.writeable = False
    return table


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


def _enumerate_modes(d: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first `count` modes in (eigenvalue, xi, parity, pol) order, as
    integer wavevectors xis (count, d), parities is_cos (count,) and unit
    polarizations pols (count, d).

    The ball of wavevectors grows until it holds `count` modes; the modes
    are ordered by key first, so only the retained ones get polarizations.
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
    return (np.array([vec for _, vec, _, _ in keys]),
            np.array([parity == "cos" for _, _, parity, _ in keys]),
            np.array([pols[vec][i] for _, vec, _, i in keys]))


@dataclass(frozen=True)
class GalerkinSpace:
    """Immutable span of the first N Stokes eigenmodes plus its grid.

    The modes are arrays: wavevectors xis, parities is_cos (cos or sin) and
    polarizations pols, one row per mode.  Every mode is a scalar profile
    times a constant vector, so the basis is stored in factored form: the
    value profiles a_n(x) = amp {cos|sin}(xi_n.x) and derivative profiles
    b_n(x) on the collocation grid, plus the per-mode polarizations pol_n and
    gradient tensors G_n = pol_n (x) xi_n.
    Then w_n = a_n pol_n, grad w_n = b_n G_n and eps(w_n) = b_n sym(G_n),
    and every transform is a GEMM on an (N, M^d) profile table followed by
    a small contraction with the per-mode constants.  The dense tables
    mode_fields, mode_grads and mode_eps are lazy views for oracles.
    """

    d: int
    N: int
    M: int
    xis: np.ndarray = field(repr=False)             # (N, d) integer wavevectors
    is_cos: np.ndarray = field(repr=False)          # (N,) cos profile, else sin
    points: np.ndarray = field(repr=False)          # (M^d, d)
    value_profiles: np.ndarray = field(repr=False)  # (N, M^d); w_n = a_n pol_n
    deriv_profiles: np.ndarray = field(repr=False)  # (N, M^d); grad w_n = b_n G_n
    pols: np.ndarray = field(repr=False)            # (N, d)
    grad_tensors: np.ndarray = field(repr=False)    # (N, d, d); [n, i, j] = pol_i xi_j
    quad_weight: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Stokes eigenvalues |xi_n|^2 on the torus, shape (N,)."""
        return np.sum(self.xis ** 2, axis=1).astype(float)

    @cached_property
    def strain_tensors(self) -> np.ndarray:
        """sym(G_n), so that eps(w_n) = b_n sym(G_n); shape (N, d, d)."""
        return 0.5 * (self.grad_tensors + np.swapaxes(self.grad_tensors, -1, -2))

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
    xis, is_cos, pols = _enumerate_modes(d, N)
    kmax = int(np.abs(xis).max())
    if M < 2 * kmax + 1:
        raise ValueError(
            f"grid resolution M={M} below oversampling bound {2 * kmax + 1} "
            f"for max wavevector component {kmax}"
        )

    axis = TWO_PI * np.arange(M) / M
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)  # (M^d, d)

    amp = np.sqrt(2.0) / TWO_PI ** (d / 2.0)
    # exp(i xi . x) on the grid (N, M^d): one table row per axis, outer products
    table = fourier_table(M)
    wave = table[xis[:, 0] % M]
    for j in range(1, d):
        wave = (wave[:, :, None] * table[xis[:, j] % M][:, None, :]).reshape(N, -1)
    values = amp * np.where(is_cos[:, None], wave.real, wave.imag)
    derivs = amp * np.where(is_cos[:, None], -wave.imag, wave.real)

    return GalerkinSpace(
        d=d, N=N, M=M, xis=xis, is_cos=is_cos, points=points,
        value_profiles=values, deriv_profiles=derivs, pols=pols,
        grad_tensors=pols[:, :, None] * xis[:, None, :],
        quad_weight=(TWO_PI / M) ** d,
    )


def suggest_grid(d: int, N: int) -> int:
    """Grid resolution 3 kmax + 1, which resolves products of three modes
    exactly (the cubic convection integrand)."""
    xis, _, _ = _enumerate_modes(d, N)
    return 3 * int(np.abs(xis).max()) + 1


def _check_coeffs(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """A coefficient vector (N,) or a block of rows (n, N)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.N:
        raise ValueError(f"expected {space.N} coefficients, got shape {coeffs.shape}")
    return coeffs


def _transform(profiles: np.ndarray, coeffs: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """sum_n c_n p_n(x) T_n for per-mode constants T_n (N, ...): shape
    (M^d, ...) for coeffs (N,) and (M^d, n, ...) for a block (n, N).  A
    block is one GEMM per row (a stacked matmul), so a row's samples are
    those of the row alone, whatever else the block holds."""
    weighted = coeffs[..., None] * consts.reshape(len(consts), -1)  # (..., N, k)
    out = profiles.T @ weighted  # (..., M^d, k)
    return np.moveaxis(out.reshape(out.shape[:-1] + consts.shape[1:]), coeffs.ndim - 1, 0)


def _project(profiles: np.ndarray, values: np.ndarray, n_comp: int) -> np.ndarray:
    """sum_x p_n(x) F(x) for samples F (M^d, ..., *comp) with n_comp
    component axes: shape (..., N, prod(comp)), one GEMM per batch index."""
    rows = np.moveaxis(values, 0, -1 - n_comp)  # (..., M^d, *comp)
    return profiles @ rows.reshape(rows.shape[:rows.ndim - n_comp] + (-1,))


def synthesize(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Samples of sum_k c_k w_k on the collocation grid, shape (M^d, d), or
    (M^d, n, d) for a block of coefficient rows (n, N)."""
    return _transform(space.value_profiles, _check_coeffs(space, coeffs), space.pols)


def analyze(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """L2 projections <field, w_k> of a sampled field (M^d, d) by trapezoidal
    quadrature, shape (N,), or (..., N) for batched samples (M^d, ..., d)."""
    if values.ndim < 2 or (values.shape[0], values.shape[-1]) != (space.M ** space.d, space.d):
        raise ValueError(f"field shape {values.shape} inconsistent with space")
    moments = _project(space.value_profiles, values, 1)  # (..., N, d)
    return space.quad_weight * np.sum(moments * space.pols, axis=-1)


def analyze_gradient(space: GalerkinSpace, values: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """<F, grad w_k> for a tensor field F of shape (M^d, d, d); <F, eps(w_k)>
    when symmetric.  Shape (N,), or (..., N) for batched samples (M^d, ..., d, d)."""
    tensors = space.strain_tensors if symmetric else space.grad_tensors
    moments = _project(space.deriv_profiles, values, 2)  # (..., N, d*d)
    return space.quad_weight * np.sum(moments * tensors.reshape(space.N, -1), axis=-1)


def velocity_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Full gradient of the synthesized field, shape (M^d, d, d), or
    (M^d, n, d, d) for a block (n, N)."""
    return _transform(space.deriv_profiles, _check_coeffs(space, coeffs), space.grad_tensors)


def symmetric_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Shear-rate tensor eps(v) at every grid point, shape (M^d, d, d), or
    (M^d, n, d, d) for a block (n, N)."""
    return _transform(space.deriv_profiles, _check_coeffs(space, coeffs), space.strain_tensors)
