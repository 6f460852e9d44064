"""Pressure reconstruction on the torus.

The pressure splits into a part driven by the tensor flux H, a stochastic
part driven by the noise, and a harmonic part.  On the torus every inverse
Laplacian is a diagonal Fourier multiplier and the harmonic part of a
mean-zero field is identically zero, so

    pi_H   = -lap^-1 (div div H),
    pi_Phi = lap^-1 div (int_0^t Phi dW)   (discrete left-point sum),
    pi_h   = 0,

all of zero spatial mean, because the symbol of lap^-1 drops the zero mode.
Each operator is its Fourier symbol applied between one forward and one
inverse FFT over the grid axes, all components at once, with the integer
wavevectors cached on the space.  The sign conventions are pinned by
requiring the extended weak identity (tested against gradient fields) to
hold exactly; see weak_residual.

The flux H is assembled from a trajectory as

    H = S(eps(v)) - v (x) v - grad lap^-1 (alpha |v|^(q-2) v - f),

where the last term rewrites the zero-order contributions as a divergence
(their spatial mean, which has no divergence representation on the torus
and is invisible to mean-zero test fields, is dropped).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GalerkinSpace, GridField, synthesize, symmetric_gradient
from .constitutive import ConstitutiveParams, eval_stabilizer, eval_stress
from .galerkin import Forcing, Trajectory
from .noise import NoiseModel, apply_phi, hilbert_schmidt_norm_sq


def _fft(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """Transform of a flattened field (M^d, ...) over its grid axes."""
    values = np.asarray(values, dtype=float)
    return np.fft.fftn(values.reshape(space.grid_shape + values.shape[1:]),
                       axes=tuple(range(space.d)))


def _ifft(space: GalerkinSpace, hat: np.ndarray) -> np.ndarray:
    """Real part of the inverse transform, flattened back to (M^d, ...)."""
    out = np.real(np.fft.ifftn(hat, axes=tuple(range(space.d))))
    return out.reshape((-1,) + out.shape[space.d:])


def inverse_laplacian(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """lap^-1 of a flattened field (M^d, ...), per component; the zero
    mode is dropped, so the output is mean-zero."""
    hat = _fft(space, values)
    k_sq = np.sum(space.wavevectors ** 2, axis=-1)
    k_sq[(0,) * space.d] = 1
    hat /= -k_sq.reshape(k_sq.shape + (1,) * (hat.ndim - space.d))
    hat[(0,) * space.d] = 0.0
    return _ifft(space, hat)


def laplacian(space: GalerkinSpace, scalar: np.ndarray) -> np.ndarray:
    """lap of a flattened scalar field."""
    return _ifft(space, _fft(space, scalar) * -np.sum(space.wavevectors ** 2, axis=-1))


def gradient_scalar(space: GalerkinSpace, scalar: np.ndarray) -> np.ndarray:
    """Spectral gradient of a flattened scalar field, shape (M^d, d)."""
    return _ifft(space, 1j * space.wavevectors * _fft(space, scalar)[..., None])


def _field_gradient(space: GalerkinSpace, values: np.ndarray) -> np.ndarray:
    """Spectral gradient of a sampled vector field, shape (M^d, d, d)."""
    k = space.wavevectors
    return _ifft(space, 1j * k[..., None, :] * _fft(space, values)[..., :, None])


def divergence_vector(space: GalerkinSpace, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a flattened vector field (M^d, d)."""
    return _ifft(space, np.sum(1j * space.wavevectors * _fft(space, vec), axis=-1))


def div_div_tensor(space: GalerkinSpace, mat: np.ndarray) -> np.ndarray:
    """d_i d_j H_ij for a flattened tensor field (M^d, d, d)."""
    k = space.wavevectors
    symbol = -k[..., :, None] * k[..., None, :]
    return _ifft(space, np.sum(symbol * _fft(space, mat), axis=(-2, -1)))


def solve_pi_H(space: GalerkinSpace, H: np.ndarray) -> np.ndarray:
    """pi_H = -lap^-1(div div H), satisfying
    int pi_H lap(phi) = -int H : grad^2(phi) for resolved test modes."""
    return -inverse_laplacian(space, div_div_tensor(space, H))


def solve_pi_h(space: GalerkinSpace) -> np.ndarray:
    # mean-zero harmonic functions on the torus vanish identically
    return np.zeros(space.M ** space.d)


def assemble_H(
    space: GalerkinSpace,
    params: ConstitutiveParams,
    coeffs: np.ndarray,
    forcing_field: GridField | None,
    split: bool = False,
):
    """Tensor flux of the velocity equation at one time.

    With split=True returns (H1, H2): H1 the stress part, H2 convection
    plus the divergence-lifted stabilizer and forcing.
    """
    eps = symmetric_gradient(space, coeffs)
    h1 = eval_stress(params, eps)
    v = synthesize(space, coeffs).values
    h2 = -v[:, :, None] * v[:, None, :]

    zero_order = np.zeros_like(v)
    if params.alpha > 0.0:
        zero_order += eval_stabilizer(params, v)
    if forcing_field is not None:
        zero_order -= forcing_field.values
    if np.any(zero_order):
        zero_order = zero_order - np.mean(zero_order, axis=0)
        h2 = h2 - _field_gradient(space, inverse_laplacian(space, zero_order))
    if split:
        return h1, h2
    return h1 + h2


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


def solve_pi_Phi(
    space: GalerkinSpace,
    phi_fields_history: np.ndarray,
    increments: np.ndarray,
) -> np.ndarray:
    """Discrete stochastic pressure at the final time.

    phi_fields_history has shape (n_steps, K, M^d, d) of left-point noise
    fields; increments (n_steps, K).  Returns
    lap^-1 div sum_n sum_k Phi^n e_k dbeta^n_k.
    """
    n_steps = increments.shape[0]
    if phi_fields_history.shape[0] != n_steps:
        raise ValueError("noise field history misaligned with increments")
    accum = np.einsum("nkxd,nk->xd", phi_fields_history, increments)
    return inverse_laplacian(space, divergence_vector(space, accum))


def decompose(
    space: GalerkinSpace,
    params: ConstitutiveParams,
    model: NoiseModel | None,
    forcing: Forcing,
    traj: Trajectory,
) -> PressureDecomposition:
    """Reconstruct all pressure parts along a recorded trajectory."""
    n = traj.n_steps
    n_pts = space.M ** space.d
    pi_H = np.zeros((n, n_pts))
    pi_1 = np.zeros((n, n_pts))
    pi_2 = np.zeros((n, n_pts))
    pi_Phi = np.zeros((n + 1, n_pts))
    H_sq = np.zeros((n, n_pts))
    hs = np.zeros(n)
    stoch_accum = np.zeros((n_pts, space.d))

    for m in range(n):
        c = traj.coeffs[m]
        h1, h2 = assemble_H(space, params, c, forcing.at_step(m), split=True)
        H_sq[m] = np.sum((h1 + h2) ** 2, axis=(-2, -1))
        pi_1[m] = solve_pi_H(space, h1)
        pi_2[m] = solve_pi_H(space, h2)
        pi_H[m] = pi_1[m] + pi_2[m]
        if model is not None and traj.increments is not None:
            phi = apply_phi(model, space, synthesize(space, c))
            hs[m] = hilbert_schmidt_norm_sq(space, phi)
            stoch_accum += np.einsum("kxd,k->xd", phi, traj.increments[m])
            pi_Phi[m + 1] = inverse_laplacian(space, divergence_vector(space, stoch_accum))

    return PressureDecomposition(
        pi_h=solve_pi_h(space),
        pi_H_series=pi_H,
        pi_Phi_series=pi_Phi,
        pi_1_series=pi_1,
        pi_2_series=pi_2,
        H_sq_series=H_sq,
        hs_series=hs,
    )


def weak_residual(
    space: GalerkinSpace,
    params: ConstitutiveParams,
    model: NoiseModel | None,
    forcing: Forcing,
    traj: Trajectory,
    decomposition: PressureDecomposition,
    test_field: GridField,
    t_index: int | None = None,
) -> float:
    """Residual of the extended weak identity against an arbitrary field.

    Evaluates, at recorded time t = t_index * dt,

        int (v(t) - v0) . phi + int_0^t int H : grad phi
        + int_0^t int pi_H div phi - int pi_Phi(t) div phi
        - int int_0^t Phi dW . phi

    with left-point time quadrature matching the integrator.  The pi_H and
    pi_Phi terms exactly cancel the non-solenoidal action of H and Phi, so
    the result measures the time-discretization and Galerkin truncation
    error only.
    """
    if t_index is None:
        t_index = traj.n_steps
    phi_vals = test_field.values
    w = space.quad_weight
    grad_phi = _field_gradient(space, phi_vals)
    div_phi = np.trace(grad_phi, axis1=-2, axis2=-1)

    v_t = synthesize(space, traj.coeffs[t_index]).values
    v_0 = synthesize(space, traj.coeffs[0]).values
    res = w * float(np.sum((v_t - v_0) * phi_vals))

    for m in range(t_index):
        h = assemble_H(space, params, traj.coeffs[m], forcing.at_step(m))
        res += traj.dt * w * float(np.sum(h * grad_phi))
        res += traj.dt * w * float(np.sum(decomposition.pi_H_series[m] * div_phi))
        if model is not None and traj.increments is not None:
            phi_fields = apply_phi(model, space, synthesize(space, traj.coeffs[m]))
            res -= w * float(
                np.sum(np.einsum("kxd,k->xd", phi_fields, traj.increments[m]) * phi_vals)
            )
    res -= w * float(np.sum(decomposition.pi_Phi_series[t_index] * div_phi))
    return abs(res)


def estimate_check(
    space: GalerkinSpace,
    params: ConstitutiveParams,
    model: NoiseModel | None,
    forcing: Forcing,
    trajectories: list[Trajectory],
    s: float | None = None,
) -> dict:
    """Monte Carlo left/right sides of the three pressure estimates.

    Uses s = p' by default.  Reports the empirical ratio of each estimate;
    the harmonic part is identically zero on the torus.  max_abs_mean is the
    largest spatial mean of pi_H or pi_Phi over every trajectory and step.
    """
    if s is None:
        s = params.p / (params.p - 1.0)
    w = space.quad_weight
    lhs_H, rhs_H, lhs_Phi, rhs_Phi = [], [], [], []
    max_abs_mean = 0.0
    for traj in trajectories:
        dec = decompose(space, params, model, forcing, traj)
        pi_int = 0.0
        h_int = 0.0
        for m in range(traj.n_steps):
            pi_int += traj.dt * w * float(np.sum(np.abs(dec.pi_H_series[m]) ** s))
            h_int += traj.dt * w * float(np.sum(dec.H_sq_series[m] ** (s / 2.0)))
        lhs_H.append(pi_int)
        rhs_H.append(h_int)
        lhs_Phi.append(max(w * float(np.sum(row ** 2)) for row in dec.pi_Phi_series))
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
