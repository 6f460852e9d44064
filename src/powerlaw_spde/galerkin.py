"""Finite-dimensional SDE for the Galerkin coefficients and its integrators.

The coefficient vector C solves dC = mu(t, C) dt + Sigma(C) dbeta with

    mu_k = -int S(eps(v)) : eps(w_k) + int v (x) v : grad w_k
           - alpha int |v|^(q-2) v . w_k + int f . w_k,
    Sigma_kl = int g_l(v) . w_k,

all integrals by collocation quadrature with v = sum_k c_k w_k.  Two time
discretizations are provided: explicit Euler-Maruyama, and a semi-implicit
scheme that treats the two monotone terms (stress and stabilizer)
implicitly via damped, matrix-free Newton-CG on a strictly convex
objective, while convection, forcing and noise stay explicit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    GalerkinSpace,
    analyze,
    analyze_gradient,
    symmetric_gradient,
    synthesize,
    velocity_gradient,
)
from .constitutive import (
    ConstitutiveParams,
    eval_stabilizer,
    eval_stress,
    stabilizer_potential,
    stress_potential,
)
from .noise import NoiseModel, WienerPath, apply_phi

SCHEMES = ("euler_maruyama", "semi_implicit")


@dataclass(frozen=True)
class SdeStepConfig:
    dt: float
    scheme: str = "euler_maruyama"
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.newton_tol <= 0.0:
            raise ValueError("newton tolerance must be positive")


class IntegratorError(RuntimeError):
    """Raised when a time step cannot be completed; names the step."""

    def __init__(self, message: str, step: int, residual: float | None = None):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.residual = residual


def stress_force(params: ConstitutiveParams, space: GalerkinSpace, eps: np.ndarray) -> np.ndarray:
    """-int S(eps(v)) : eps(w_k) dx for each k, from the samples of eps(v)."""
    return -analyze_gradient(space, eval_stress(params, eps), symmetric=True)


def stabilizer_force(params: ConstitutiveParams, space: GalerkinSpace,
                     v: np.ndarray | None) -> np.ndarray:
    """-alpha int |v|^(q-2) v . w_k dx for each k, from the samples of v
    (which may be None when alpha = 0)."""
    if params.alpha == 0.0:
        return np.zeros(space.N)
    return -analyze(space, eval_stabilizer(params, v))


def convection_force(space: GalerkinSpace, v: np.ndarray) -> np.ndarray:
    """int v (x) v : grad w_k dx (divergence form) for each k, from the
    samples of v."""
    return analyze_gradient(space, v[:, :, None] * v[:, None, :])


def forcing_term(space: GalerkinSpace, forcing: np.ndarray | None) -> np.ndarray:
    """int f . w_k dx for a sampled body force f, or zero without one."""
    if forcing is None:
        return np.zeros(space.N)
    return analyze(space, forcing)


def assemble_drift(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    forcing: np.ndarray | None,
    v: np.ndarray,
    eps: np.ndarray,
) -> np.ndarray:
    """mu(C) from the samples of v = v_C and eps(v)."""
    return (
        stress_force(params, space, eps)
        + convection_force(space, v)
        + stabilizer_force(params, space, v)
        + forcing_term(space, forcing)
    )


def assemble_diffusion(model: NoiseModel, space: GalerkinSpace, v: np.ndarray) -> np.ndarray:
    """N x K matrix Sigma_kl = int g_l(v) . w_k dx from the samples of v."""
    phi = apply_phi(model, space, v)  # (K, M^d, d)
    K, n_pts, d = phi.shape
    # one GEMM for all K fields: moments[n, l, :] = sum_x a_n(x) phi_l(x)
    moments = space.value_profiles @ phi.transpose(1, 0, 2).reshape(n_pts, K * d)
    return space.quad_weight * np.einsum(
        "nld,nd->nl", moments.reshape(space.N, K, d), space.pols)


def trilinear_convection(space: GalerkinSpace, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """b(u, v, w) = int (u (x) v) : grad(sum_k w_k-expansion of w) dx."""
    uf = synthesize(space, u)
    vf = synthesize(space, v)
    grad_w = velocity_gradient(space, w)
    tensor = uf[:, :, None] * vf[:, None, :]
    return float(space.quad_weight * np.sum(tensor * grad_w))


def _implicit_fields(params, space, coeffs):
    """eps(v_C) and, with the stabilizer on, the samples of v_C: the fields
    that the objective, its gradient and its Hessian at C all read."""
    eps = symmetric_gradient(space, coeffs)
    v = synthesize(space, coeffs) if params.alpha > 0.0 else None
    return eps, v


def _implicit_gradient(params, space, coeffs, rhs, dt, fields):
    """Gradient of the convex objective
    J(C) = 0.5|C - rhs|^2 + dt * (int F(eps(v_C)) + (alpha/q) int |v_C|^q)."""
    eps, v = fields
    return coeffs - rhs - dt * (
        stress_force(params, space, eps) + stabilizer_force(params, space, v)
    )


def _implicit_objective(params, space, coeffs, rhs, dt, fields):
    eps, v = fields
    total = space.quad_weight * float(np.sum(stress_potential(params, eps)))
    if v is not None:
        total += space.quad_weight * float(np.sum(stabilizer_potential(params, v)))
    return 0.5 * float(np.sum((coeffs - rhs) ** 2)) + dt * total


def _implicit_hessian_product(params, space, dt, fields):
    """x -> H x for the Hessian H >= I of the implicit objective at the
    iterate with these fields, never assembled.  With t = |eps| and eps^ =
    eps/t, D^2 F(eps)[E] = nu0 (1+t)^(p-2) (E + (p-2) t/(1+t) (eps^:E) eps^);
    the stabilizer's Hessian maps u to alpha |v|^(q-2) (u + (q-2) (v^.u) v^).
    The coefficients are computed once per iterate; a product is four GEMMs."""
    eps, v = fields
    t = np.sqrt(np.sum(eps ** 2, axis=(-2, -1)))[:, None, None]
    c1 = params.nu0 * (1.0 + t) ** (params.p - 2.0)
    e_hat = eps / np.where(t > 0.0, t, 1.0)
    e_rank = (params.p - 2.0) * t / (1.0 + t) * e_hat
    if v is not None:
        vmag = np.linalg.norm(v, axis=-1)[:, None]
        a1 = params.alpha * vmag ** (params.q - 2.0)
        v_hat = v / np.where(vmag > 0.0, vmag, 1.0)
        v_rank = (params.q - 2.0) * v_hat

    def product(x):
        e = symmetric_gradient(space, x)
        flux = c1 * (e + np.sum(e_hat * e, axis=(-2, -1))[:, None, None] * e_rank)
        out = analyze_gradient(space, flux, symmetric=True)
        if v is not None:
            u = synthesize(space, x)
            out += analyze(space, a1 * (u + np.sum(v_hat * u, axis=-1)[:, None] * v_rank))
        return x + dt * out

    return product


def _newton_direction(params, space, dt, fields, grad, tol):
    """Inexact Newton direction: preconditioned CG on H d = -g from d = 0,
    with the Jacobi preconditioner 1 + dt nu0 lambda_k / 2 (the exact
    diagonal of H for p = 2, alpha = 0, since int |eps(w_k)|^2 = lambda_k/2)
    and the forcing term min(1e-8, sqrt|g|) of Dembo, Eisenstat & Steihaug.
    Any truncated CG iterate is a descent direction."""
    hess = _implicit_hessian_product(params, space, dt, fields)
    precond = 1.0 + 0.5 * dt * params.nu0 * space.eigenvalues
    g_norm = float(np.linalg.norm(grad))
    stop = max(min(1e-8, np.sqrt(g_norm)) * g_norm, 0.1 * tol)
    direction, resid = np.zeros_like(grad), -grad
    search = resid / precond
    rz = resid @ search
    for _ in range(space.N):
        h_search = hess(search)
        step_len = rz / (search @ h_search)
        direction = direction + step_len * search
        resid = resid - step_len * h_search
        if np.linalg.norm(resid) <= stop:
            break
        z = resid / precond
        rz, rz_old = resid @ z, rz
        search = z + (rz / rz_old) * search
    return direction


def _solve_implicit(params, space, rhs, dt, tol, max_iter, step_index):
    # The fields are evaluated once per iterate: a trial accepted by the
    # line search carries its fields and objective into the next iteration.
    # Round-off grows with |rhs| in the gradient (|C| <= |rhs| at the
    # minimizer) and with the value in the objective: both tests scale.
    tol = tol * max(1.0, float(np.linalg.norm(rhs)))
    coeffs = rhs.copy()
    fields = _implicit_fields(params, space, coeffs)
    value = _implicit_objective(params, space, coeffs, rhs, dt, fields)
    for _ in range(max_iter):
        grad = _implicit_gradient(params, space, coeffs, rhs, dt, fields)
        res = float(np.linalg.norm(grad))
        if not np.isfinite(res):
            raise IntegratorError("non-finite Newton residual", step_index, res)
        if res <= tol:
            return coeffs
        direction = _newton_direction(params, space, dt, fields, grad, tol)
        # backtracking on the convex objective
        lam = 1.0
        for _ in range(40):
            trial = coeffs + lam * direction
            trial_fields = _implicit_fields(params, space, trial)
            trial_value = _implicit_objective(params, space, trial, rhs, dt, trial_fields)
            if trial_value < value + 1e-14 * max(1.0, abs(value)):
                coeffs, fields, value = trial, trial_fields, trial_value
                break
            lam *= 0.5
        else:
            raise IntegratorError("Newton line search failed", step_index, res)
    grad = _implicit_gradient(params, space, coeffs, rhs, dt, fields)
    res = float(np.linalg.norm(grad))
    if res <= tol:
        return coeffs
    raise IntegratorError(
        f"Newton did not converge within {max_iter} iterations", step_index, res)


def step(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    forcing: np.ndarray | None,
    coeffs: np.ndarray,
    cfg: SdeStepConfig,
    step_index: int,
    v: np.ndarray,
    eps: np.ndarray,
    noise_part: np.ndarray,
) -> np.ndarray:
    """The coefficients after one time step from C = coeffs with the
    configured scheme, given the left-point samples v of v_C and eps of
    eps(v_C) and the noise increment Sigma(C) dbeta."""
    if cfg.scheme == "euler_maruyama":
        new = coeffs + cfg.dt * assemble_drift(params, space, forcing, v, eps) + noise_part
    else:
        rhs = (
            coeffs
            + cfg.dt * (convection_force(space, v) + forcing_term(space, forcing))
            + noise_part
        )
        new = _solve_implicit(params, space, rhs, cfg.dt,
                              cfg.newton_tol, cfg.newton_max_iter, step_index)

    if not np.isfinite(new @ new):  # |C|^2, also non-finite for any bad entry
        raise IntegratorError("non-finite state", step_index)
    return new


@dataclass
class Trajectory:
    """Recorded history of one simulated path.

    Scalar series are per-step left-point increments without the dt factor
    except where noted; coeffs has shape (n_steps + 1, N).
    """

    space: GalerkinSpace
    params: ConstitutiveParams
    cfg: SdeStepConfig
    times: np.ndarray
    coeffs: np.ndarray
    increments: np.ndarray | None          # (n_steps, K) Brownian increments
    stress_diss: np.ndarray                # int S(eps(v)) : eps(v) dx at left points
    stab_int: np.ndarray                   # alpha int |v|^q dx
    force_work: np.ndarray                 # int f . v dx
    grad_lp: np.ndarray                    # int |grad v|^p dx
    vel_rq: np.ndarray                     # int |v|^r0 dx, r0 = p(d+2)/d
    mart: np.ndarray                       # C . Sigma(C) dbeta per step
    qv: np.ndarray                         # |Sigma(C)|_F^2 dt per step
    seed: int | None = None

    @property
    def dt(self) -> float:
        return self.cfg.dt

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def energy(self) -> np.ndarray:
        """|C(t)|^2 = ||v(t)||_{L2}^2 at the recorded times."""
        return np.sum(self.coeffs ** 2, axis=1)

    def sup_energy(self) -> float:
        return float(np.max(self.energy()))

    def grad_lp_time_integral(self) -> float:
        return float(self.dt * np.sum(self.grad_lp))

    def stab_time_integral(self) -> float:
        return float(self.dt * np.sum(self.stab_int))

    def vel_rq_time_integral(self) -> float:
        return float(self.dt * np.sum(self.vel_rq))


def interpolation_exponent(params: ConstitutiveParams) -> float:
    """r0 = p (d+2) / d, the parabolic interpolation exponent."""
    return params.p * (params.d + 2) / params.d


def run_trajectory(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    model: NoiseModel | None,
    forcing: np.ndarray | None,
    v0_coeffs: np.ndarray,
    cfg: SdeStepConfig,
    n_steps: int,
    seed: int | None = None,
    path: WienerPath | None = None,
) -> Trajectory:
    """Integrate the Galerkin SDE and record the energy bookkeeping.

    forcing is the sampled body force (M^d, d) or None.  A path may be
    supplied directly (e.g. a coarsened refinement of a fine path);
    otherwise it is generated from the seed.
    """
    v0_coeffs = np.asarray(v0_coeffs, dtype=float)
    if v0_coeffs.shape != (space.N,) or not np.all(np.isfinite(v0_coeffs)):
        raise ValueError(f"initial coefficients must be {space.N} finite numbers, "
                         f"got shape {v0_coeffs.shape}")
    if path is None and model is not None:
        if seed is None:
            raise ValueError("need a seed or an explicit Wiener path")
        path = WienerPath.generate(seed, cfg.dt, model.K, n_steps)

    N = space.N
    coeffs = np.empty((n_steps + 1, N))
    coeffs[0] = v0_coeffs
    times = cfg.dt * np.arange(n_steps + 1)
    stress_diss = np.zeros(n_steps)
    stab_int = np.zeros(n_steps)
    force_work = np.zeros(n_steps)
    grad_lp = np.zeros(n_steps)
    vel_rq = np.zeros(n_steps)
    mart = np.zeros(n_steps)
    qv = np.zeros(n_steps)
    r0 = interpolation_exponent(params)

    c = coeffs[0]
    noise_part = np.zeros(N)
    w = space.quad_weight
    # a diverging run overflows quietly and stops at the first non-finite
    # diagnostic or state, which raises IntegratorError
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # one left-point evaluation feeds the diagnostics and the step
            eps = symmetric_gradient(space, c)
            grad = velocity_gradient(space, c)
            v = synthesize(space, c)
            stress_diss[n] = w * float(np.sum(eval_stress(params, eps) * eps))
            grad_lp[n] = w * float(np.sum(np.sum(grad ** 2, axis=(-2, -1)) ** (params.p / 2.0)))
            vmag = np.linalg.norm(v, axis=-1)
            vel_rq[n] = w * float(np.sum(vmag ** r0))
            if params.alpha > 0.0:
                stab_int[n] = params.alpha * w * float(np.sum(vmag ** params.q))
            if forcing is not None:
                force_work[n] = w * float(np.sum(forcing * v))
            if model is not None:
                sigma = assemble_diffusion(model, space, v)
                noise_part = sigma @ path.increments[n]
                mart[n] = float(c @ noise_part)
                qv[n] = float(np.sum(sigma ** 2)) * cfg.dt
            diagnostics = (stress_diss[n], stab_int[n], force_work[n], grad_lp[n],
                           vel_rq[n], mart[n], qv[n])
            if not np.all(np.isfinite(diagnostics)):
                raise IntegratorError("non-finite diagnostics", n)
            c = step(params, space, forcing, c, cfg, n, v, eps, noise_part)
            coeffs[n + 1] = c

    return Trajectory(
        space=space, params=params, cfg=cfg, times=times, coeffs=coeffs,
        increments=None if path is None else path.increments[:n_steps],
        stress_diss=stress_diss, stab_int=stab_int, force_work=force_work,
        grad_lp=grad_lp, vel_rq=vel_rq, mart=mart, qv=qv, seed=seed,
    )
