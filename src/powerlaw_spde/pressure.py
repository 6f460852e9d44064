"""Pressure reconstruction on the torus.

The pressure splits into a part driven by the tensor flux H, a stochastic
part driven by the noise, and a harmonic part.  On the torus every inverse
Laplacian is a diagonal Fourier multiplier and the harmonic part of a
mean-zero field is identically zero, so

    pi_H   = -lap^-1 (div div H),
    pi_Phi = lap^-1 div (int_0^t Phi dW)   (discrete left-point sum),
    pi_h   = 0,

all of zero spatial mean, because the symbol of lap^-1 drops the zero mode.
Each operator is its Fourier symbol applied between one real transform
pair over the grid axes, all batch and component axes at once.  The pair is
a matmul per grid axis with a DFT matrix read from basis.fourier_table(M),
the table that also builds the basis profiles: a real (2H, M) [cos; -sin]
matrix takes the last axis to its H = M//2+1 half-spectrum bins, a complex
(M, M) matrix each other axis; back, the inverse complex matrices and a
real (M, 2H) matrix with bin weights 1, 2, ..., 2 (1 at an even grid's
Nyquist bin), which equals irfftn.  On grids of a few dozen points per
axis this beats np.fft's pocketfft, whose cost there is per-line overhead,
not arithmetic.

The symbols live on the half spectrum, integer wavevectors in FFT order
with the last grid axis cut to its first H bins, and are built once per
(d, M).  On an even grid two rules keep them exact: the Nyquist bin carries
the wavenumber -M/2, and each symbol s is replaced by its Hermitian part
(s(k) + conj s(-k mod M)) / 2, so an odd symbol (a first derivative) drops
the Nyquist wavenumber, which is its own negative mod M.  The sign
conventions are pinned by requiring the extended weak identity (tested
against gradient fields) to hold exactly; see weak_residual.

decompose, weak_residual and estimate_check read the space, parameters,
noise and body force from the galerkin.Problem that each trajectory
carries.  decompose and weak_residual take a trajectory in chunks of at most
_CHUNK_POINTS grid points x steps, time being a batch axis between the grid
and component axes: a chunk's velocity is (M^d, n, d) and its flux (H1, H2)
(M^d, n, 2, d, d), one transform call per field and one real transform
pair per operator.

The flux H is assembled from a trajectory as

    H = S(eps(v)) - v (x) v - grad lap^-1 (alpha |v|^(q-2) v - f),

where the last term rewrites the zero-order contributions as a divergence
(their spatial mean, which has no divergence representation on the torus
and is invisible to mean-zero test fields, is dropped).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import GalerkinSpace, check_field, fourier_table, symmetric_gradient, synthesize
from .constitutive import ConstitutiveParams, eval_stabilizer, eval_stress
from .galerkin import Trajectory
from .noise import apply_phi, generators


# Grid points x steps per chunk (6 steps on a 13^2 grid): the transforms are
# batched well before this, and the temporaries do not grow with the length
# of the trajectory.  The flux (M^d, n, 2, d, d) and its transforms set a
# chunk's peak; the noise path holds only the r <= d generator fields.
_CHUNK_POINTS = 1024


@functools.cache
def _half_symbol(symbol, d: int, M: int) -> np.ndarray:
    """Hermitian part of symbol(k) on the half spectrum of the M^d grid (see
    above), shape (M,)*(d-1) + (M//2+1,) + out + in."""
    k = (np.arange(M) + M // 2) % M - M // 2
    k = np.stack(np.meshgrid(*[k] * (d - 1), k[:M // 2 + 1], indexing="ij"), axis=-1)
    # -k mod M as a wavevector: a Nyquist component is its own negative
    out = 0.5 * (symbol(k) + np.conj(symbol(np.where(2 * k == -M, k, -k))))
    out.flags.writeable = False
    return out


@functools.cache
def _dft_matrices(M: int) -> tuple[np.ndarray, ...]:
    """Per-axis DFT matrices of an M-point axis, all read from fourier_table(M)
    (H = M//2+1 half-spectrum bins): the real forward matrix (2H, M)
    [cos; -sin], the complex forward and inverse matrices (M, M), and the real
    c2r matrix (M, 2H) with bin weights 1, 2, ..., 2 (1 at an even grid's
    Nyquist bin), so that it inverts the half spectrum as irfft does."""
    table = fourier_table(M)  # [k, m] = exp(2 pi i k m / M)
    half = table[:M // 2 + 1]
    bins = np.arange(len(half))
    weight = np.where((bins == 0) | (2 * bins == M), 1.0, 2.0) / M
    mats = (np.concatenate([half.real, -half.imag]), np.conj(table), table / M,
            np.concatenate([half.real.T * weight, -half.imag.T * weight], axis=1))
    for mat in mats:
        mat.flags.writeable = False
    return mats


def _apply_symbol(space: GalerkinSpace, values: np.ndarray, symbol, n_in: int) -> np.ndarray:
    """symbol applied to a flattened real field (M^d, ..., *in) with n_in
    input component axes: the half spectrum by one matmul per grid axis, the
    product with the cached half-spectrum symbol summed over the input axes,
    the inverse matmuls; shape (M^d, ..., *out).  Grid axis a is the middle
    axis of the (M^a, M, -1) view, so no axis is moved."""
    d, M, H = space.d, space.M, space.M // 2 + 1
    r2c, fwd, inv, c2r = _dft_matrices(M)
    values = np.asarray(values, dtype=float)
    pair = r2c @ values.reshape(M ** (d - 1), M, -1)  # (M^(d-1), 2H, -1): re; im
    hat = np.empty((len(pair), H, pair.shape[-1]), dtype=complex)
    hat.real, hat.imag = pair[:, :H], pair[:, H:]
    for a in range(d - 1):
        hat = fwd @ hat.reshape(M ** a, M, -1)
    hat = hat.reshape(space.grid_shape[:-1] + (H,) + values.shape[1:])
    sym = _half_symbol(symbol, d, M)
    n_batch, n_out = hat.ndim - d - n_in, sym.ndim - d - n_in
    hat = sym.reshape(sym.shape[:d] + (1,) * n_batch + sym.shape[d:]) * hat.reshape(
        hat.shape[:d + n_batch] + (1,) * n_out + hat.shape[d + n_batch:])
    if n_in:
        hat = np.sum(hat, axis=tuple(range(-n_in, 0)))
    out_shape = (M ** d,) + hat.shape[d:]
    for a in range(d - 1):
        hat = inv @ hat.reshape(M ** a, M, -1)
    hat = hat.reshape(M ** (d - 1), H, -1)
    return (c2r @ np.concatenate([hat.real, hat.imag], axis=1)).reshape(out_shape)


# The Fourier symbols of the operators at integer wavevectors k (..., d).
def _inverse_laplacian_symbol(k):
    k_sq = np.sum(k ** 2, axis=-1)
    return np.divide(-1.0, k_sq, out=np.zeros(k_sq.shape), where=k_sq > 0)


def _laplacian_symbol(k):
    return -np.sum(k ** 2, axis=-1)


def _gradient_symbol(k):
    return 1j * k


def _hessian_symbol(k):
    return -k[..., :, None] * k[..., None, :]


def inverse_laplacian(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """lap^-1 of a flattened field (M^d, ...), per component; the zero
    mode is dropped, so the output is mean-zero."""
    return _apply_symbol(space, values, _inverse_laplacian_symbol, 0)


def laplacian(space: GalerkinSpace, scalar: np.ndarray) -> np.ndarray:
    """lap of a flattened scalar field (M^d, ...)."""
    return _apply_symbol(space, scalar, _laplacian_symbol, 0)


def gradient_scalar(space: GalerkinSpace, scalar: np.ndarray) -> np.ndarray:
    """Spectral gradient of a flattened field (M^d, ...), shape (M^d, ..., d):
    of a vector field (M^d, ..., d), [..., i, j] = d_j v_i."""
    return _apply_symbol(space, scalar, _gradient_symbol, 0)


_field_gradient = gradient_scalar


def divergence_vector(space: GalerkinSpace, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a flattened vector field (M^d, ..., d)."""
    return _apply_symbol(space, vec, _gradient_symbol, 1)


def div_div_tensor(space: GalerkinSpace, mat: np.ndarray) -> np.ndarray:
    """d_i d_j H_ij for a flattened tensor field (M^d, ..., d, d)."""
    return _apply_symbol(space, mat, _hessian_symbol, 2)


def solve_pi_H(space: GalerkinSpace, H: np.ndarray) -> np.ndarray:
    """pi_H = -lap^-1(div div H) for H of shape (M^d, ..., d, d), satisfying
    int pi_H lap(phi) = -int H : grad^2(phi) for resolved test modes."""
    return -inverse_laplacian(space, div_div_tensor(space, H))


def solve_pi_h(space: GalerkinSpace) -> np.ndarray:
    # mean-zero harmonic functions on the torus vanish identically
    return np.zeros(space.M ** space.d)


def assemble_H(
    space: GalerkinSpace,
    params: ConstitutiveParams,
    coeffs: np.ndarray,
    v: np.ndarray,
    forcing: np.ndarray | None,
    implicit: np.ndarray | None = None,
) -> np.ndarray:
    """Tensor flux H = H1 + H2 of the velocity equation at the coefficient
    rows coeffs (n, N) with samples v = synthesize(space, coeffs)
    (M^d, n, d), stacked as (M^d, n, 2, d, d): H1 the stress part, H2
    convection plus the divergence-lifted stabilizer and the sampled body
    force (M^d, d) or None.  The monotone terms (stress and stabilizer) are
    taken at the rows implicit instead when given: C_{n+1} of the
    semi-implicit scheme.  H1 at a row is, bit for bit, the stress that the
    integrator steps with at that row's left point.
    """
    at = coeffs if implicit is None else implicit
    h = np.empty(v.shape[:2] + (2, space.d, space.d))
    h[:, :, 0] = eval_stress(params, symmetric_gradient(space, at))
    h[:, :, 1] = -v[..., :, None] * v[..., None, :]

    zero_order = np.zeros_like(v)
    if params.alpha > 0.0:
        zero_order += eval_stabilizer(params, v if implicit is None else synthesize(space, at))
    if forcing is not None:
        zero_order -= forcing[:, None]
    if np.any(zero_order):
        zero_order = zero_order - np.mean(zero_order, axis=0)
        h[:, :, 1] -= _field_gradient(space, inverse_laplacian(space, zero_order))
    return h


def _noise_increments(space, model, v, increments):
    """sum_k Phi e_k dbeta_k at the velocity samples v (M^d, n, d) of n
    steps, shape (M^d, n, d), and the noise norms sum_k int |Phi e_k|^2
    (n,), both from the r <= d generator fields: with Phi e_k =
    sum_r U[r, k] G_r, the sum is sum_r G_r (U dbeta)_r and the norm
    sum_rs (U U^T)_rs int G_r . G_s."""
    gen, mix = generators(model, space.d)
    fields = apply_phi(gen, space, v)  # (r, M^d, n, d)
    gram = space.quad_weight * np.einsum("rxnd,sxnd->nrs", fields, fields)
    hs = np.einsum("nrs,rs->n", gram, mix @ mix.T)
    return np.einsum("rxnd,nr->xnd", fields, increments @ mix.T), hs


def _chunks(space: GalerkinSpace, n_steps: int) -> list[slice]:
    size = max(1, _CHUNK_POINTS // space.M ** space.d)
    return [slice(a, min(a + size, n_steps)) for a in range(0, n_steps, size)]


@dataclass
class PressureDecomposition:
    """Per-step pressure parts along a trajectory (all mean-zero).

    pi_H_series[n] belongs to the left point of step n; pi_Phi_series[n]
    is the stochastic pressure at time t_n (pi_Phi_series[0] = 0).  pi_1
    and pi_2 are the stress / remainder split of pi_H.  H_sq_series[n] is
    the pointwise |H|^2 and hs_series[n] the noise norm sum_k int |Phi e_k|^2
    at the left point of step n (zero without noise).
    """

    pi_h: np.ndarray
    pi_H_series: np.ndarray
    pi_Phi_series: np.ndarray
    pi_1_series: np.ndarray
    pi_2_series: np.ndarray
    H_sq_series: np.ndarray
    hs_series: np.ndarray


def decompose(traj: Trajectory) -> PressureDecomposition:
    """Reconstruct all pressure parts along a recorded trajectory, one chunk
    of steps at a time."""
    space, params, model, forcing = (traj.problem.space, traj.problem.params,
                                     traj.problem.model, traj.problem.forcing)
    n = traj.n_steps
    n_pts = space.M ** space.d
    pi_1, pi_2, H_sq = (np.zeros((n, n_pts)) for _ in range(3))
    pi_Phi = np.zeros((n + 1, n_pts))
    hs = np.zeros(n)
    accum = np.zeros((n_pts, 1, space.d))  # sum_k Phi e_k dbeta_k up to the chunk

    for sl in _chunks(space, n):
        v = synthesize(space, traj.coeffs[sl])
        h = assemble_H(space, params, traj.coeffs[sl], v, forcing)
        H_sq[sl] = np.sum((h[:, :, 0] + h[:, :, 1]) ** 2, axis=(-2, -1)).T
        pi = solve_pi_H(space, h)  # (M^d, n, 2)
        pi_1[sl], pi_2[sl] = pi[..., 0].T, pi[..., 1].T
        if model is not None and traj.increments is not None:
            dW, hs[sl] = _noise_increments(space, model, v, traj.increments[sl])
            if model.family == "linear":
                continue  # a_k v is divergence-free: pi_Phi = 0, not round-off
            # the running sum enters as the first row: additions in step order
            accum = np.cumsum(np.concatenate([accum[:, -1:], dW], axis=1), axis=1)
            pi_Phi[sl.start + 1:sl.stop + 1] = inverse_laplacian(
                space, divergence_vector(space, accum[:, 1:])).T

    return PressureDecomposition(
        pi_h=solve_pi_h(space),
        pi_H_series=pi_1 + pi_2,
        pi_Phi_series=pi_Phi,
        pi_1_series=pi_1,
        pi_2_series=pi_2,
        H_sq_series=H_sq,
        hs_series=hs,
    )


def weak_residual(traj: Trajectory, decomposition: PressureDecomposition,
                  test_field: np.ndarray, t_index: int | None = None) -> float:
    """Residual of the extended weak identity against an arbitrary field.

    Evaluates, at recorded time t = t_index * dt,

        int (v(t) - v0) . phi + int_0^t int H : grad phi
        + int_0^t int pi_H div phi - int pi_Phi(t) div phi
        - int int_0^t Phi dW . phi

    with the time quadrature of the trajectory's scheme: left points
    throughout for Euler-Maruyama; under the semi-implicit scheme the stress
    and the stabilizer in H at C_{n+1}, as the implicit solve takes them.
    The pi_H and pi_Phi terms exactly cancel the non-solenoidal action of H
    and Phi, so against a divergence-free field the result measures the
    solver tolerance and the Galerkin truncation error only; pi_H belongs
    to the left points, so against gradient fields a semi-implicit run also
    shows the time-discretization error of the monotone terms.
    """
    space, params, model, forcing = (traj.problem.space, traj.problem.params,
                                     traj.problem.model, traj.problem.forcing)
    check_field(space, test_field, "test_field")
    if t_index is None:
        t_index = traj.n_steps
    w = space.quad_weight
    grad_phi = _field_gradient(space, test_field)
    div_phi = np.trace(grad_phi, axis1=-2, axis2=-1)
    implicit = traj.problem.cfg.scheme == "semi_implicit"

    change = synthesize(space, traj.coeffs[t_index] - traj.coeffs[0])
    res = w * float(np.sum(change * test_field))
    res += traj.dt * w * float(np.sum(decomposition.pi_H_series[:t_index] * div_phi))
    res -= w * float(np.sum(decomposition.pi_Phi_series[t_index] * div_phi))
    for sl in _chunks(space, t_index):
        right = traj.coeffs[sl.start + 1:sl.stop + 1] if implicit else None
        v = synthesize(space, traj.coeffs[sl])
        h = assemble_H(space, params, traj.coeffs[sl], v, forcing, right)
        res += traj.dt * w * float(np.sum(h * grad_phi[:, None, None]))
        if model is not None and traj.increments is not None:
            dW, _ = _noise_increments(space, model, v, traj.increments[sl])
            res -= w * float(np.sum(dW * test_field[:, None]))
    return abs(res)


def estimate_check(trajectories: list[Trajectory]) -> dict:
    """Monte Carlo left/right sides of the three pressure estimates over
    trajectories of one Problem (ValueError otherwise).

    Uses s = p'.  Reports the empirical ratio of each estimate;
    the harmonic part is identically zero on the torus.  max_abs_mean is the
    largest spatial mean of pi_H or pi_Phi over every trajectory and step.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    problem = trajectories[0].problem
    if any(traj.problem is not problem for traj in trajectories):
        raise ValueError("trajectories of different problems")
    space, params = problem.space, problem.params
    s = params.p / (params.p - 1.0)
    w = space.quad_weight
    lhs_H, rhs_H, lhs_Phi, rhs_Phi = [], [], [], []
    max_abs_mean = 0.0
    for traj in trajectories:
        dec = decompose(traj)
        lhs_H.append(traj.dt * w * float(np.sum(np.abs(dec.pi_H_series) ** s)))
        rhs_H.append(traj.dt * w * float(np.sum(dec.H_sq_series ** (s / 2.0))))
        lhs_Phi.append(w * float(np.max(np.sum(dec.pi_Phi_series ** 2, axis=1))))
        rhs_Phi.append(float(np.max(dec.hs_series, initial=0.0)))
        means = np.concatenate([np.mean(dec.pi_H_series, axis=1),
                                np.mean(dec.pi_Phi_series, axis=1)])
        max_abs_mean = max(max_abs_mean, float(np.max(np.abs(means))))

    def ratio(lhs, rhs):
        num, den = float(np.mean(lhs)), float(np.mean(rhs))
        return num / den if den > 0 else 0.0

    return {
        "s": s,
        "chi": min(2.0, s),
        "pi_H_ratio": ratio(lhs_H, rhs_H),
        "pi_H_lhs": float(np.mean(lhs_H)),
        "pi_H_rhs": float(np.mean(rhs_H)),
        "pi_Phi_ratio": ratio(lhs_Phi, rhs_Phi),
        "pi_Phi_lhs": float(np.mean(lhs_Phi)),
        "pi_Phi_rhs": float(np.mean(rhs_Phi)),
        "pi_h_sup": 0.0,
        "max_abs_mean": max_abs_mean,
    }
