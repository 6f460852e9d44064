"""Finite-dimensional SDE for the Galerkin coefficients and its integrators.

The coefficient vector C solves dC = mu(t, C) dt + Sigma(C) dbeta with

    mu_k = -int S(eps(v)) : eps(w_k) + int v (x) v : grad w_k
           - alpha int |v|^(q-2) v . w_k + int f . w_k,
    Sigma_kl = int g_l(v) . w_k,

all integrals by collocation quadrature with v = sum_k c_k w_k.  Two time
discretizations are provided: explicit Euler-Maruyama, and a semi-implicit
scheme that treats the two monotone terms (stress and stabilizer)
implicitly via damped Newton on a strictly convex objective, while
convection, forcing and noise stay explicit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    GalerkinSpace,
    GridField,
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


@dataclass
class VelocityState:
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("velocity coefficients must be finite")


@dataclass(frozen=True)
class Forcing:
    """Deterministic body force: zero, a steady field, or per-step fields."""

    mode: str = "zero"
    data: GridField | tuple[GridField, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("zero", "steady_field", "time_series"):
            raise ValueError(f"unknown forcing mode {self.mode!r}")
        if self.mode != "zero" and self.data is None:
            raise ValueError("forcing data required")

    def at_step(self, step: int) -> GridField | None:
        if self.mode == "zero":
            return None
        if self.mode == "steady_field":
            return self.data
        return self.data[min(step, len(self.data) - 1)]

    def l2q_norm_sq(self, space: GalerkinSpace, dt: float, n_steps: int) -> float:
        """int_Q |f|^2 dx dt with left-point time quadrature."""
        if self.mode == "zero":
            return 0.0
        total = 0.0
        for n in range(n_steps):
            f = self.at_step(n)
            total += dt * space.quad_weight * float(np.sum(f.values ** 2))
        return total


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


def stress_force(params: ConstitutiveParams, space: GalerkinSpace, coeffs: np.ndarray,
                 eps: np.ndarray | None = None) -> np.ndarray:
    """-int S(eps(v)) : eps(w_k) dx for each k; eps(v) may be passed in."""
    if eps is None:
        eps = symmetric_gradient(space, coeffs)
    return -analyze_gradient(space, eval_stress(params, eps), symmetric=True)


def stabilizer_force(params: ConstitutiveParams, space: GalerkinSpace, coeffs: np.ndarray,
                     v: np.ndarray | None = None) -> np.ndarray:
    """-alpha int |v|^(q-2) v . w_k dx for each k; the samples of v may be passed in."""
    if params.alpha == 0.0:
        return np.zeros(space.N)
    if v is None:
        v = synthesize(space, coeffs).values
    return -analyze(space, eval_stabilizer(params, v))


def convection_force(space: GalerkinSpace, coeffs: np.ndarray,
                     v: np.ndarray | None = None) -> np.ndarray:
    """int v (x) v : grad w_k dx (divergence form) for each k; the samples of
    v may be passed in."""
    if v is None:
        v = synthesize(space, coeffs).values
    return analyze_gradient(space, v[:, :, None] * v[:, None, :])


def forcing_term(space: GalerkinSpace, forcing: Forcing, step: int) -> np.ndarray:
    f = forcing.at_step(step)
    if f is None:
        return np.zeros(space.N)
    return analyze(space, f)


def assemble_drift(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    forcing: Forcing,
    state: VelocityState,
    step: int = 0,
    v: np.ndarray | None = None,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """mu(C) at the state; the samples of v and eps(v) may be passed in."""
    return (
        stress_force(params, space, state.coeffs, eps)
        + convection_force(space, state.coeffs, v)
        + stabilizer_force(params, space, state.coeffs, v)
        + forcing_term(space, forcing, step)
    )


def assemble_diffusion(model: NoiseModel, space: GalerkinSpace, state: VelocityState,
                       v: np.ndarray | None = None) -> np.ndarray:
    """N x K matrix Sigma_kl = int g_l(v) . w_k dx; the samples of v may be
    passed in."""
    if v is None:
        v = synthesize(space, state.coeffs).values
    phi = apply_phi(model, space, v)  # (K, M^d, d)
    K, n_pts, d = phi.shape
    # one GEMM for all K fields: moments[n, l, :] = sum_x a_n(x) phi_l(x)
    moments = space.value_profiles @ phi.transpose(1, 0, 2).reshape(n_pts, K * d)
    return space.quad_weight * np.einsum(
        "nld,nd->nl", moments.reshape(space.N, K, d), space.pols)


def trilinear_convection(space: GalerkinSpace, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """b(u, v, w) = int (u (x) v) : grad(sum_k w_k-expansion of w) dx."""
    uf = synthesize(space, u).values
    vf = synthesize(space, v).values
    grad_w = velocity_gradient(space, w)
    tensor = uf[:, :, None] * vf[:, None, :]
    return float(space.quad_weight * np.sum(tensor * grad_w))


def project_initial(space: GalerkinSpace, fld: GridField) -> VelocityState:
    """Orthogonal projection of an initial field onto the Galerkin span."""
    return VelocityState(coeffs=analyze(space, fld), time=0.0)


def _implicit_fields(params, space, coeffs):
    """eps(v_C) and, with the stabilizer on, the samples of v_C: the fields
    that the objective, its gradient and its Hessian at C all read."""
    eps = symmetric_gradient(space, coeffs)
    v = synthesize(space, coeffs).values if params.alpha > 0.0 else None
    return eps, v


def _implicit_gradient(params, space, coeffs, rhs, dt, fields):
    """Gradient of the convex objective
    J(C) = 0.5|C - rhs|^2 + dt * (int F(eps(v_C)) + (alpha/q) int |v_C|^q)."""
    eps, v = fields
    return coeffs - rhs - dt * (
        stress_force(params, space, coeffs, eps) + stabilizer_force(params, space, coeffs, v)
    )


def _implicit_objective(params, space, coeffs, rhs, dt, fields):
    eps, v = fields
    total = space.quad_weight * float(np.sum(stress_potential(params, eps)))
    if v is not None:
        total += space.quad_weight * float(np.sum(stabilizer_potential(params, v)))
    return 0.5 * float(np.sum((coeffs - rhs) ** 2)) + dt * total


def _gram(rows, weight):
    """sum_x weight(x) r_n(x) r_m(x) for a weight of one sign, as a
    symmetric rank-k product (half the flops of a general GEMM)."""
    sign = -1.0 if np.any(weight < 0.0) else 1.0
    root = rows * np.sqrt(sign * weight)
    return sign * (root @ root.T)


def _implicit_hessian(params, space, dt, fields):
    """Exact Hessian of the implicit objective; symmetric positive definite.

    With eps(w_n) = b_n sym(G_n) and w_n = a_n pol_n, a weighted Gram matrix
    int c eps(w_n) : eps(w_m) dx is the profile Gram (b c) b^T times the
    constant (sym G)(sym G)^T elementwise, and likewise for the w_n . w_m
    terms of the stabilizer.  The profile Grams run over distinct profiles
    only; the rank-one parts need one row per mode.
    """
    eps, v = fields
    w = space.quad_weight * dt
    rows, index = space.distinct_profiles
    spread = np.ix_(index, index)
    b = space.deriv_profiles
    strain = space.strain_tensors.reshape(space.N, -1)
    flat_eps = eps.reshape(len(eps), -1)
    mag = np.sqrt(np.sum(flat_eps ** 2, axis=-1))
    c1 = params.nu0 * (1.0 + mag) ** (params.p - 2.0)
    hess = _gram(b[rows], w * c1)[spread] * (strain @ strain.T)

    # rank-one part of D^2 F: (p-2)(1+t)^(p-3) (eps:A)(eps:B)/t, vanishing
    # with t -> 0
    safe = mag > 1e-14
    if np.any(safe):
        c2 = np.where(safe, (params.p - 2.0) * params.nu0
                      * (1.0 + mag) ** (params.p - 3.0) / np.where(safe, mag, 1.0), 0.0)
        proj = b * (strain @ flat_eps.T)  # eps(w_n) : eps at every point
        hess += _gram(proj, w * c2)

    if v is not None:
        a, pols = space.value_profiles, space.pols
        vmag = np.linalg.norm(v, axis=-1)
        a1 = params.alpha * vmag ** (params.q - 2.0)
        hess += _gram(a[rows], w * a1)[spread] * (pols @ pols.T)
        vsafe = vmag > 1e-14
        if np.any(vsafe):
            a2 = np.where(vsafe, (params.q - 2.0) * params.alpha
                          * np.where(vsafe, vmag, 1.0) ** (params.q - 4.0), 0.0)
            vproj = a * (pols @ v.T)  # w_n . v at every point
            hess += _gram(vproj, w * a2)

    hess += np.eye(space.N)
    return hess


def _solve_implicit(params, space, rhs, dt, tol, max_iter, step_index):
    # The fields are evaluated once per iterate: a trial accepted by the
    # line search carries its fields and objective into the next iteration.
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
        hess = _implicit_hessian(params, space, dt, fields)
        direction = np.linalg.solve(hess, -grad)
        # backtracking on the convex objective
        lam = 1.0
        for _ in range(40):
            trial = coeffs + lam * direction
            trial_fields = _implicit_fields(params, space, trial)
            trial_value = _implicit_objective(params, space, trial, rhs, dt, trial_fields)
            if trial_value < value + 1e-14:
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
    model: NoiseModel | None,
    forcing: Forcing,
    state: VelocityState,
    cfg: SdeStepConfig,
    path: WienerPath | None,
    step_index: int = 0,
    v: np.ndarray | None = None,
    eps: np.ndarray | None = None,
    noise_part: np.ndarray | None = None,
) -> VelocityState:
    """Advance one time step with the configured scheme.  The left-point
    samples of v and eps(v) and the noise Sigma(C) dbeta may be passed in."""
    if noise_part is None:
        noise_part = np.zeros(space.N)
        if model is not None and path is not None:
            noise_part = assemble_diffusion(model, space, state, v) @ path.increments[step_index]

    if cfg.scheme == "euler_maruyama":
        mu = assemble_drift(params, space, forcing, state, step_index, v, eps)
        new = state.coeffs + cfg.dt * mu + noise_part
    else:
        rhs = (
            state.coeffs
            + cfg.dt * (convection_force(space, state.coeffs, v)
                        + forcing_term(space, forcing, step_index))
            + noise_part
        )
        new = _solve_implicit(params, space, rhs, cfg.dt,
                              cfg.newton_tol, cfg.newton_max_iter, step_index)

    if not np.isfinite(new @ new):  # |C|^2, also non-finite for any bad entry
        raise IntegratorError("non-finite state", step_index)
    return VelocityState(coeffs=new, time=state.time + cfg.dt)


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
    forcing: Forcing,
    v0_coeffs: np.ndarray,
    cfg: SdeStepConfig,
    n_steps: int,
    seed: int | None = None,
    path: WienerPath | None = None,
) -> Trajectory:
    """Integrate the Galerkin SDE and record the energy bookkeeping.

    A path may be supplied directly (e.g. a coarsened refinement of a fine
    path); otherwise it is generated from the seed.
    """
    if path is None and model is not None:
        if seed is None:
            raise ValueError("need a seed or an explicit Wiener path")
        path = WienerPath.generate(seed, cfg.dt, model.K, n_steps)

    N = space.N
    coeffs = np.empty((n_steps + 1, N))
    coeffs[0] = np.asarray(v0_coeffs, dtype=float)
    times = cfg.dt * np.arange(n_steps + 1)
    stress_diss = np.zeros(n_steps)
    stab_int = np.zeros(n_steps)
    force_work = np.zeros(n_steps)
    grad_lp = np.zeros(n_steps)
    vel_rq = np.zeros(n_steps)
    mart = np.zeros(n_steps)
    qv = np.zeros(n_steps)
    r0 = interpolation_exponent(params)

    state = VelocityState(coeffs=coeffs[0], time=0.0)
    w = space.quad_weight
    # a diverging run overflows quietly and stops at the first non-finite
    # diagnostic or state, which raises IntegratorError
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # one left-point evaluation feeds the diagnostics and the step
            eps = symmetric_gradient(space, state.coeffs)
            grad = velocity_gradient(space, state.coeffs)
            v = synthesize(space, state.coeffs).values
            stress_diss[n] = w * float(np.sum(eval_stress(params, eps) * eps))
            grad_lp[n] = w * float(np.sum(np.sum(grad ** 2, axis=(-2, -1)) ** (params.p / 2.0)))
            vmag = np.linalg.norm(v, axis=-1)
            vel_rq[n] = w * float(np.sum(vmag ** r0))
            if params.alpha > 0.0:
                stab_int[n] = params.alpha * w * float(np.sum(vmag ** params.q))
            f = forcing.at_step(n)
            if f is not None:
                force_work[n] = w * float(np.sum(f.values * v))
            noise_part = None
            if model is not None:
                sigma = assemble_diffusion(model, space, state, v)
                noise_part = sigma @ path.increments[n]
                mart[n] = float(state.coeffs @ noise_part)
                qv[n] = float(np.sum(sigma ** 2)) * cfg.dt
            diagnostics = (stress_diss[n], stab_int[n], force_work[n], grad_lp[n],
                           vel_rq[n], mart[n], qv[n])
            if not np.all(np.isfinite(diagnostics)):
                raise IntegratorError("non-finite diagnostics", n)
            state = step(params, space, model, forcing, state, cfg, path, n,
                         v=v, eps=eps, noise_part=noise_part)
            coeffs[n + 1] = state.coeffs

    return Trajectory(
        space=space, params=params, cfg=cfg, times=times, coeffs=coeffs,
        increments=None if path is None else path.increments[:n_steps],
        stress_diss=stress_diss, stab_int=stab_int, force_work=force_work,
        grad_lp=grad_lp, vel_rq=vel_rq, mart=mart, qv=qv, seed=seed,
    )
