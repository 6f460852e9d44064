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
mode is a scalar profile times a constant vector, and the profiles of the
modes and of their gradients are the cos and sin rows of the same
wavevectors, the basis is stored as one table of the R = 2 n_xi distinct
cos/sin rows (about N at d=2, N/2 at d=3) plus per-mode constants.  Every
transform is one matrix product on that table (see GalerkinSpace); v and
grad v at the same coefficients come from one product, and so do the
projections onto w_k and grad w_k.

Samples are stored component by component: the public shapes are
(M^d, ..., k), but a forward transform returns a view of its (..., k, M^d)
product, so each component's M^d samples are contiguous.  BLAS then runs
the product W @ profiles with the long M^d side as its n, not its m, and
the adjoint reads the same view with no copy.  The pointwise kernels that
follow inherit the layout, since ufunc outputs follow their inputs', and
run on contiguous slabs.  A caller that needs C-ordered memory copies
(np.ascontiguousarray).

The strain eps(v) = (grad v + grad v^T) / 2 is formed in one place,
symmetric_part.  No transform projects onto eps(w_k): a symmetric tensor
field S has <S, eps(w_k)> = <S, grad w_k>, so analyze_gradient serves.

The profile rows are the real and imaginary parts of exp(i xi . x),
built as products of rows of fourier_table(M), one row per axis at
xi_j mod M.  The Fourier table reduces each phase k*m mod M before exp, so
no entry carries the round-off of a large phase; the per-axis DFT
matrices of the pressure operators are read from the same table.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

TWO_PI = 2.0 * np.pi


class FieldError(ValueError):
    """A refused input value; .field names the parameter that holds it."""

    def __init__(self, fld: str, message: str):
        super().__init__(message)
        self.field = fld


def is_count(value, minimum: int = 0) -> bool:
    """Whether value is an int or a numpy integer, not a bool, and >= minimum."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


@functools.cache
def fourier_table(M: int) -> np.ndarray:
    """exp(2 pi i k m / M) for k, m in 0..M-1, shape (M, M), symmetric and
    read-only; the phase k*m is reduced mod M before exp."""
    k = np.arange(M)
    table = np.exp(2j * np.pi * (np.outer(k, k) % M) / M)
    table.flags.writeable = False
    return table


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

    Each wavevector carries 2 (d-1) modes, cos before sin and polarizations
    in order, so the modes are the first ceil(count / (2 (d-1))) canonical
    wavevectors by (|xi|^2, xi), each repeated.  The ball of candidates
    doubles its radius until it holds enough of them; only the retained
    wavevectors get polarizations.
    """
    n_pol = d - 1
    n_vecs = -(-count // (2 * n_pol))
    # the half ball of radius r holds about (pi/2) r^2 resp. (2 pi/3) r^3
    # wavevectors, so radius n_vecs^(1/d) mostly needs no doubling
    radius = max(1, round(n_vecs ** (1 / d)))
    while True:
        axis = np.arange(-radius, radius + 1)
        vecs = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
        first = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
        norms = np.sum(vecs ** 2, axis=1)
        keep = (first > 0) & (norms <= radius * radius)
        if np.count_nonzero(keep) >= n_vecs:
            break
        radius *= 2
    vecs = vecs[keep][np.lexsort((*vecs[keep].T[::-1], norms[keep]))[:n_vecs]]
    pols = np.array([_polarizations(vec) for vec in map(tuple, vecs.tolist())])  # (n_vecs, d-1, d)
    return (np.repeat(vecs, 2 * n_pol, axis=0)[:count],
            np.tile(np.repeat([True, False], n_pol), n_vecs)[:count],
            np.tile(pols, (1, 2, 1)).reshape(-1, d)[:count])


def _swap_pairs(rows: np.ndarray) -> np.ndarray:
    """A copy of rows (..., R) with each cos/sin pair (2j, 2j+1) swapped."""
    out = np.empty(rows.shape)
    out[..., 0::2] = rows[..., 1::2]
    out[..., 1::2] = rows[..., 0::2]
    return out


def _by_row(space: GalerkinSpace, per_mode: np.ndarray, paired: bool) -> np.ndarray:
    """Per-mode constants (N, k) placed on the profile row that they
    multiply, shape (k, d-1, R) with R the number of rows: [:, i, r] belongs
    to the i-th mode of row r, or with paired to the i-th mode of row r ^ 1;
    zero where the cut at N left no mode."""
    R, n_pol = len(space.profiles), space.d - 1
    out = np.zeros((R * n_pol, per_mode.shape[1]))
    out[:space.N] = per_mode
    out = np.ascontiguousarray(out.reshape(R, n_pol, -1).T)
    return _swap_pairs(out) if paired else out


@dataclass(frozen=True)
class GalerkinSpace:
    """Immutable span of the first N Stokes eigenmodes plus its grid.

    The modes are arrays: wavevectors xis, parities is_cos (cos or sin) and
    polarizations pols, one row per mode.  Every mode is a scalar profile
    times a constant vector, so the basis is stored in factored form: one
    table of the R = 2 n_xi distinct profiles on the collocation grid, a
    cos row amp cos(xi.x) and a sin row amp sin(xi.x) for each distinct
    wavevector in mode order, plus per-mode constants.

    The modes of one wavevector are contiguous (cos before sin, then the
    d-1 polarizations), so mode n reads row n // (d-1) and w_n = a_row pol_n.
    Since d cos = -sin and d sin = cos, its gradient reads the paired row
    row ^ 1: grad w_n = a_(row^1) G_n with G_n = -+ pol_n (x) xi_n (minus
    for cos).  Every transform is one GEMM on the table: the per-mode
    constants are summed by row over the polarizations, and a derivative
    part swaps each cos/sin row pair.  The table keeps the sin row of a last
    wavevector whose sin modes fell to the cut at N, since its cos modes'
    gradients read it.  The transforms of the unit block np.eye(N) sample
    every mode and its gradient.
    """

    d: int
    N: int
    M: int
    xis: np.ndarray = field(repr=False)       # (N, d) integer wavevectors
    is_cos: np.ndarray = field(repr=False)    # (N,) cos profile, else sin
    pols: np.ndarray = field(repr=False)      # (N, d)
    points: np.ndarray = field(repr=False)    # (M^d, d)
    profiles: np.ndarray = field(repr=False)  # (R, M^d); rows 2j, 2j+1: cos, sin of xi_j
    quad_weight: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Stokes eigenvalues |xi_n|^2 on the torus, shape (N,)."""
        return np.sum(self.xis ** 2, axis=1).astype(float)

    @cached_property
    def value_consts(self) -> np.ndarray:
        """pol_n on row n // (d-1), shape (d, d-1, R)."""
        return _by_row(self, self.pols, paired=False)

    @cached_property
    def grad_consts(self) -> np.ndarray:
        """The signed G_n on the paired row, shape (d*d, d-1, R)."""
        sign = np.where(self.is_cos, -1.0, 1.0)[:, None, None]
        tensors = sign * self.pols[:, :, None] * self.xis[:, None, :]
        return _by_row(self, tensors.reshape(self.N, -1), paired=True)

    @cached_property
    def mode_eps(self) -> np.ndarray:
        """eps(w_n) = a_(row^1) sym(G_n) for every mode, shape (N, M^d, d, d).
        No package code reads it: it is kept only because the benchmark's
        set-up builds it, and it goes with the benchmark change that stops
        building it."""
        rows = np.arange(self.N) // (self.d - 1)
        sign = np.where(self.is_cos, -1.0, 1.0)[:, None, None]
        strain = symmetric_part(sign * self.pols[:, :, None] * self.xis[:, None, :])
        return self.profiles[rows ^ 1][:, :, None, None] * strain[:, None]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.M,) * self.d


def check_modes(d: int, N: int) -> None:
    """Refuse a dimension other than 2 or 3 and fewer than one mode."""
    if d not in (2, 3):
        raise FieldError("d", f"dimension must be 2 or 3, got {d}")
    if N < 1:
        raise FieldError("N", f"need at least one mode, got {N}")


def build_space(d: int, N: int, M: int) -> GalerkinSpace:
    """Construct the Galerkin space with N modes on an M^d grid.

    M must satisfy the oversampling bound M >= 2*kmax + 1 with kmax the
    largest wavevector component among the retained modes, so that all
    quadratic products of modes are integrated exactly.
    """
    check_modes(d, N)
    xis, is_cos, pols = _enumerate_modes(d, N)
    kmax = int(np.abs(xis).max())
    if M < 2 * kmax + 1:
        raise FieldError("M", f"grid resolution M={M} below oversampling bound {2 * kmax + 1} "
                              f"for max wavevector component {kmax}")

    axis = TWO_PI * np.arange(M) / M
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)  # (M^d, d)

    amp = np.sqrt(2.0) / TWO_PI ** (d / 2.0)
    # exp(i xi . x) on the grid for each distinct xi: one table row per
    # axis, outer products
    vecs = xis[::2 * (d - 1)]
    table = fourier_table(M)
    wave = table[vecs[:, 0] % M]
    for j in range(1, d):
        wave = (wave[:, :, None] * table[vecs[:, j] % M][:, None, :]).reshape(len(vecs), -1)
    profiles = np.empty((len(vecs), 2, M ** d))
    np.multiply(amp, wave.real, out=profiles[:, 0])
    np.multiply(amp, wave.imag, out=profiles[:, 1])

    return GalerkinSpace(
        d=d, N=N, M=M, xis=xis, is_cos=is_cos, pols=pols, points=points,
        profiles=profiles.reshape(2 * len(vecs), -1), quad_weight=(TWO_PI / M) ** d,
    )


def suggest_grid(d: int, N: int) -> int:
    """Grid resolution 3 kmax + 1, which resolves products of three modes
    exactly (the cubic convection integrand)."""
    check_modes(d, N)
    xis, _, _ = _enumerate_modes(d, N)
    return 3 * int(np.abs(xis).max()) + 1


def _check_coeffs(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """A coefficient vector (N,) or a block of rows (n, N)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.N:
        raise ValueError(f"expected {space.N} coefficients, got shape {coeffs.shape}")
    return coeffs


def check_samples(space: GalerkinSpace, values: np.ndarray) -> None:
    """Refuse samples whose shape is not (M^d, ..., d)."""
    if values.ndim < 2 or (values.shape[0], values.shape[-1]) != (space.M ** space.d, space.d):
        raise ValueError(f"samples {values.shape} are not (M^d, ..., d) = ({space.M ** space.d}, ..., {space.d})")


def check_field(space: GalerkinSpace, values: np.ndarray, name: str) -> None:
    """Refuse a single sampled field whose shape is not (M^d, d); the message
    calls it name."""
    if np.shape(values) != (space.M ** space.d, space.d):
        raise ValueError(f"{name} must be sampled on the grid, shape "
                         f"({space.M ** space.d}, {space.d}), got {np.shape(values)}")


def _forward(space: GalerkinSpace, coeffs: np.ndarray, value_consts=None, deriv_consts=None):
    """sum_n c_n [a_n T_n | b_n D_n] for value constants T (value_consts)
    and derivative constants D (deriv_consts) by row; either may be None.
    Shape (M^d, k) for coeffs (N,) and (M^d, n, k) for a block (n, N), as a
    view of the (..., k, M^d) product: samples are component-major.  A
    block is one GEMM per row (a stacked matmul), so a row's samples are
    those of the row alone, whatever else the block holds."""
    coeffs = _check_coeffs(space, coeffs)
    lead = coeffs.shape[:-1]
    R, n_pol = len(space.profiles), space.d - 1
    if R * n_pol > space.N:
        coeffs = np.concatenate([coeffs, np.zeros(lead + (R * n_pol - space.N,))], axis=-1)
    c = coeffs.reshape(lead + (R, n_pol)).swapaxes(-1, -2)[..., None, :, :]
    # row r weighs the values of its own modes and the derivatives of the
    # modes of row r ^ 1, side by side
    weights = []
    if value_consts is not None:
        weights.append(c * value_consts)
    if deriv_consts is not None:
        weights.append(_swap_pairs(c) * deriv_consts)
    weights = weights[0] if len(weights) == 1 else np.concatenate(weights, axis=-3)
    # sum over the polarizations of a row
    weights = weights.sum(axis=-2) if n_pol > 1 else weights[..., 0, :]
    out = weights @ space.profiles  # (..., k, M^d)
    return out.transpose(-1, *range(out.ndim - 1))  # (M^d, ..., k), a view


def _adjoint(space: GalerkinSpace, values: np.ndarray, value_consts=None, deriv_consts=None):
    """quad_weight sum_x F(x) . [a_n T_n | b_n D_n] for samples F
    (M^d, ..., k) in any memory layout: the transpose of _forward, shape
    (..., N), one GEMM per batch index on the (..., k, M^d) view, which
    needs no copy for component-major samples."""
    columns = values.transpose(*range(1, values.ndim), 0)  # (..., k, M^d)
    lead = columns.shape[:-2]
    moments = (columns @ space.profiles.T)[..., None, :]  # (..., k, 1, R)
    split = 0 if value_consts is None else len(value_consts)
    out = None
    if value_consts is not None:
        out = (moments[..., :split, :, :] * value_consts).sum(axis=-3)
    if deriv_consts is not None:
        # row r's moments project the derivatives of the modes of row r ^ 1
        deriv = _swap_pairs((moments[..., split:, :, :] * deriv_consts).sum(axis=-3))
        out = deriv if out is None else out + deriv
    out = space.quad_weight * out.swapaxes(-1, -2)  # (..., R, d-1)
    return out.reshape(lead + (-1,))[..., :space.N]


def synthesize(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Samples of sum_k c_k w_k on the collocation grid, shape (M^d, d), or
    (M^d, n, d) for a block of coefficient rows (n, N)."""
    return _forward(space, coeffs, value_consts=space.value_consts)


def analyze(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """L2 projections <field, w_k> of a sampled field (M^d, d) by trapezoidal
    quadrature, shape (N,), or (..., N) for batched samples (M^d, ..., d)."""
    check_samples(space, values)
    return _adjoint(space, values, value_consts=space.value_consts)


def analyze_scalar(space: GalerkinSpace, scalar: np.ndarray) -> np.ndarray:
    """<s e_j, w_k> of a sampled scalar field s (M^d,) times each unit vector
    e_j, shape (d, N), or (..., d, N) for batched samples (M^d, ...): the
    analyze of the d fields s e_j from one moment product per batch index,
    combined with value_consts as _adjoint combines value columns."""
    if scalar.ndim < 1 or scalar.shape[0] != space.M ** space.d:
        raise ValueError(f"samples {scalar.shape} are not (M^d, ...) = ({space.M ** space.d}, ...)")
    columns = scalar.transpose(*range(1, scalar.ndim), 0)[..., None, :]  # (..., 1, M^d)
    moments = (columns @ space.profiles.T)[..., None, :]  # (..., 1, 1, R)
    out = space.quad_weight * (moments * space.value_consts).swapaxes(-1, -2)  # (..., d, R, d-1)
    return out.reshape(out.shape[:-2] + (-1,))[..., :space.N]


def analyze_gradient(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """<F, grad w_k> for a tensor field F of shape (M^d, d, d), which is
    <F, eps(w_k)> when F is symmetric.  Shape (N,), or (..., N) for batched
    samples (M^d, ..., d, d)."""
    columns = values.reshape(values.shape[:-2] + (-1,))  # (M^d, ..., d*d)
    return _adjoint(space, columns, deriv_consts=space.grad_consts)


def velocity_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Full gradient of the synthesized field, shape (M^d, d, d), or
    (M^d, n, d, d) for a block (n, N)."""
    out = _forward(space, coeffs, deriv_consts=space.grad_consts)
    return out.reshape(out.shape[:-1] + (space.d, space.d))


def symmetric_part(grad: np.ndarray) -> np.ndarray:
    """(G + G^T) / 2 of tensor samples (..., d, d): the strain eps(v) of a
    velocity gradient G = grad v.  Every strain of the package is formed
    here."""
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def symmetric_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> np.ndarray:
    """Shear-rate tensor eps(v) at every grid point, shape (M^d, d, d), or
    (M^d, n, d, d) for a block (n, N)."""
    return symmetric_part(velocity_gradient(space, coeffs))


def synthesize_with_gradient(space: GalerkinSpace, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(synthesize, velocity_gradient) at the same coefficients from one
    GEMM per row on d + d^2 columns, as two views of one array."""
    out = _forward(space, coeffs, space.value_consts, space.grad_consts)
    d = space.d
    return out[..., :d], out[..., d:].reshape(out.shape[:-1] + (d, d))


def analyze_with_gradient(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """analyze of the d columns plus analyze_gradient of the d*d columns of
    samples (M^d, ..., d + d^2) in the layout of synthesize_with_gradient,
    from one GEMM per batch index."""
    return _adjoint(space, values, space.value_consts, space.grad_consts)
