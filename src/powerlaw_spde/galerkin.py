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

The integrator steps a block of B rows (B, N) in lockstep, one row per
Wiener path: one synthesis and one gradient call per step serve every row,
the forces and Sigma are projected for all rows at once, and the
diagnostics are per row.  Each call is a stacked matmul (one GEMM per row)
and each per-row sum runs over that row alone, so a row's numbers are
bit-identical to the same seed run alone.  Row b holds seed b for the whole
run: a row whose diagnostics or step fail records its first IntegratorError
and rides on as a zero row, whose later values are thrown away, and the run
stops once every row has failed.  The semi-implicit solve runs row by row on
each row's own right-hand side.  A single trajectory is a block of one.

A Problem names everything that fixes a run except its Wiener paths (the
parameters, the span, the noise, the body force, the initial datum and
the time grid) and checks once that its parts agree.  run_trajectory takes
one, and each Trajectory carries the Problem it came from, so the
diagnostics downstream (analysis, pressure) read it from there.  The step
kernels below keep their narrow arguments.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import (
    FieldError,
    GalerkinSpace,
    analyze,
    analyze_gradient,
    analyze_with_gradient,
    check_field,
    symmetric_gradient,
    symmetric_part,
    synthesize,
    synthesize_with_gradient,
    velocity_gradient,
)
from .constitutive import (
    ConstitutiveParams,
    eval_stabilizer,
    eval_stress,
    stabilizer_potential,
    stress_potential,
)
from .noise import NoiseModel, WienerPath, apply_phi, generators

SCHEMES = ("euler_maruyama", "semi_implicit")


# The semi-implicit Newton solve stops at |grad| <= NEWTON_TOL * max(1, |rhs|)
# and fails after NEWTON_MAX_ITER iterations.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class SdeStepConfig:
    dt: float
    scheme: str = "euler_maruyama"

    def __post_init__(self):
        if self.dt <= 0.0:
            raise FieldError("dt", f"time step must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise FieldError("scheme", f"unknown scheme {self.scheme!r}")


class IntegratorError(RuntimeError):
    """Raised when a time step cannot be completed; names the step."""

    def __init__(self, message: str, step: int, residual: float | None = None):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.residual = residual


def stress_force(space: GalerkinSpace, stress: np.ndarray) -> np.ndarray:
    """-int S : eps(w_k) dx for each k, from the samples of the stress
    S = S(eps(v)), (M^d, d, d) or batched (M^d, B, d, d): S is symmetric,
    so this is -int S : grad w_k, one analyze_gradient."""
    return -analyze_gradient(space, stress)


def stabilizer_force(params: ConstitutiveParams, space: GalerkinSpace,
                     v: np.ndarray | None) -> np.ndarray:
    """-alpha int |v|^(q-2) v . w_k dx for each k, from the samples of v
    (which may be None when alpha = 0)."""
    if params.alpha == 0.0:
        return np.zeros(space.N)
    return -analyze(space, eval_stabilizer(params, v))


def convection_force(space: GalerkinSpace, v: np.ndarray) -> np.ndarray:
    """int v (x) v : grad w_k dx (divergence form) for each k, from the
    samples of v (M^d, d) or (M^d, B, d)."""
    return analyze_gradient(space, v[..., :, None] * v[..., None, :])


def forcing_term(space: GalerkinSpace, forcing: np.ndarray | None) -> np.ndarray:
    """int f . w_k dx for a sampled body force f, or zero without one."""
    if forcing is None:
        return np.zeros(space.N)
    return analyze(space, forcing)


def assemble_drift(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    force_coeffs: np.ndarray,
    v: np.ndarray,
    stress: np.ndarray,
) -> np.ndarray:
    """mu(C) from the samples of v = v_C and of the stress S(eps(v)) and the
    projected body force force_coeffs = forcing_term(space, forcing)."""
    return (
        stress_force(space, stress)
        + convection_force(space, v)
        + stabilizer_force(params, space, v)
        + force_coeffs
    )


def assemble_diffusion(model: NoiseModel, space: GalerkinSpace, v: np.ndarray) -> np.ndarray:
    """N x K matrix Sigma_kl = int g_l(v) . w_k dx from the samples of v
    (M^d, d), or (B, N, K) from batched samples (M^d, B, d).  The K fields
    mix the model's first r <= d fields (generators(model, space.d)), so r
    projections and one (r, K) product build Sigma."""
    gen, mix = generators(model, space.d)
    fields = np.moveaxis(apply_phi(gen, space, v), 0, -2)  # (M^d, ..., r, d)
    return np.swapaxes(analyze(space, fields), -1, -2) @ mix


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
    if params.alpha == 0.0:
        return symmetric_gradient(space, coeffs), None
    v, grad = synthesize_with_gradient(space, coeffs)
    return symmetric_part(grad), v


def _implicit_gradient(params, space, coeffs, rhs, dt, fields):
    """Gradient of the convex objective
    J(C) = 0.5|C - rhs|^2 + dt * (int F(eps(v_C)) + (alpha/q) int |v_C|^q)."""
    eps, v = fields
    return coeffs - rhs - dt * (
        stress_force(space, eval_stress(params, eps)) + stabilizer_force(params, space, v)
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
    The coefficients are computed once per iterate; a product is two GEMMs,
    a forward one for (u, E) = (v_x, eps(v_x)) and its adjoint.  The flux is
    symmetric, so its projection onto eps(w_k) is the one onto grad w_k."""
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
        e, u = _implicit_fields(params, space, x)
        flux = e + np.sum(e_hat * e, axis=(-2, -1))[:, None, None] * e_rank
        if u is None:
            return x + dt * analyze_gradient(space, c1 * flux)
        # component-first (d + d^2, M^d): the targets are transposed
        # slices, views by construction
        d = space.d
        out = np.empty((d + d * d, len(u)))
        np.multiply(a1, u + np.sum(v_hat * u, axis=-1)[:, None] * v_rank, out=out[:d].T)
        np.multiply(c1[:, 0], flux.reshape(len(u), -1), out=out[d:].T)
        return x + dt * analyze_with_gradient(space, out.T)

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


def _solve_implicit(params, space, rhs, dt, step_index):
    # The fields are evaluated once per iterate: a trial accepted by the
    # line search carries its fields and objective into the next iteration.
    # Round-off grows with |rhs| in the gradient (|C| <= |rhs| at the
    # minimizer) and with the value in the objective: both tests scale.
    tol = NEWTON_TOL * max(1.0, float(np.linalg.norm(rhs)))
    coeffs = rhs.copy()
    fields = _implicit_fields(params, space, coeffs)
    value = _implicit_objective(params, space, coeffs, rhs, dt, fields)
    for iteration in range(NEWTON_MAX_ITER + 1):
        grad = _implicit_gradient(params, space, coeffs, rhs, dt, fields)
        res = float(np.linalg.norm(grad))
        if res <= tol:
            return coeffs
        if iteration == NEWTON_MAX_ITER:
            raise IntegratorError(
                f"Newton did not converge within {NEWTON_MAX_ITER} iterations", step_index, res)
        if not np.isfinite(res):
            raise IntegratorError("non-finite Newton residual", step_index, res)
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


def step(
    params: ConstitutiveParams,
    space: GalerkinSpace,
    force_coeffs: np.ndarray,
    coeffs: np.ndarray,
    cfg: SdeStepConfig,
    step_index: int,
    v: np.ndarray,
    stress: np.ndarray,
    noise_part: np.ndarray,
) -> tuple[np.ndarray, dict[int, IntegratorError]]:
    """One time step of every row of coeffs (B, N) with the configured
    scheme, given the left-point samples v (M^d, B, d) of v_C and stress
    (M^d, B, d, d) of S(eps(v_C)), the projected body force (forcing_term)
    and the noise increments Sigma(C) dbeta (B, N).

    Returns the new rows and an IntegratorError per row whose step failed,
    keyed by batch row; a failed row of the result is meaningless.
    """
    errors = {}
    if cfg.scheme == "euler_maruyama":
        new = coeffs + cfg.dt * assemble_drift(params, space, force_coeffs, v, stress) + noise_part
    else:
        rhs = coeffs + cfg.dt * (convection_force(space, v) + force_coeffs) + noise_part
        new = np.full_like(rhs, np.nan)
        for row, row_rhs in enumerate(rhs):
            try:
                new[row] = _solve_implicit(params, space, row_rhs, cfg.dt, step_index)
            except IntegratorError as exc:
                errors[row] = exc
    # |C|^2 per row, also non-finite for any bad entry
    for row in np.flatnonzero(~np.isfinite(np.einsum("bn,bn->b", new, new))):
        errors.setdefault(int(row), IntegratorError("non-finite state", step_index))
    return new, errors


@dataclass(frozen=True, eq=False)
class Problem:
    """Everything that fixes a run except its Wiener paths: parameters, span,
    noise model (or None), sampled steady body force (M^d, d) (or None),
    initial coefficients v0, step config and number of steps.  Raises
    ValueError naming a part that disagrees with the space."""

    params: ConstitutiveParams
    space: GalerkinSpace
    model: NoiseModel | None
    forcing: np.ndarray | None
    v0: np.ndarray
    cfg: SdeStepConfig
    n_steps: int

    def __post_init__(self):
        N = self.space.N
        if self.forcing is not None:
            check_field(self.space, self.forcing, "forcing")
        v0 = np.asarray(self.v0, dtype=float)
        if v0.shape != (N,) or not np.all(np.isfinite(v0)):
            raise ValueError(f"v0 must be {N} finite numbers, got shape {v0.shape}")
        object.__setattr__(self, "v0", v0)


@dataclass
class Trajectory:
    """Recorded history of one simulated path of a problem.

    Scalar series are per-step left-point increments without the dt factor
    except where noted; coeffs has shape (n_steps + 1, N).
    """

    problem: Problem
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
        return self.problem.cfg.dt

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


def interpolation_exponent(p: float, d: int) -> float:
    """r0 = p (d+2) / d, the parabolic interpolation exponent."""
    return p * (d + 2) / d


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Per-row sums of batched samples (M^d, B, ...), shape (B,).  Each row
    is summed as one contiguous block, so its sum does not depend on the
    other rows of the batch; the grid axis goes last, which is a view of
    component-major samples (B, ..., M^d) rather than a copy."""
    rows = values.transpose(*range(1, values.ndim), 0)
    return np.sum(rows.reshape(len(rows), -1), axis=1)


def run_trajectory(
    problem: Problem,
    seed: int | Sequence[int] | None = None,
    path: WienerPath | None = None,
) -> Trajectory | list[Trajectory | IntegratorError]:
    """Integrate the Galerkin SDE and record the energy bookkeeping.

    A path may be supplied directly (e.g. a coarsened refinement of a fine
    path), and must fit the problem's noise model, dt, K and n_steps
    (ValueError otherwise); the trajectory records the path's seed, and a
    seed given with it must equal it.  Without one the path is generated
    from the seed.
    With a sequence of seeds the trajectories from problem.v0 step in
    lockstep, each on the path of its seed, and the result is a list with,
    per seed, its Trajectory or the IntegratorError that ended it; a single
    seed returns its Trajectory or raises.
    """
    params, space, model, forcing = problem.params, problem.space, problem.model, problem.forcing
    cfg, n_steps = problem.cfg, problem.n_steps
    batched = isinstance(seed, Sequence)
    seeds = list(seed) if batched else [seed]
    if batched and path is not None:
        raise ValueError("an explicit Wiener path drives a single trajectory")
    if model is None and path is not None:
        raise ValueError("an explicit Wiener path needs a noise model; the problem has none")
    increments = None
    if model is not None:
        if path is None and None in seeds:
            raise ValueError("need a seed or an explicit Wiener path")
        if path is not None:
            if seed is not None and seed != path.seed:
                raise ValueError(f"seed = {seed} differs from the explicit path's "
                                 f"seed = {path.seed}")
            seeds = [path.seed]
            # a coarsened path's dt, dt_fine * factor, may differ in the last bit
            if abs(path.dt - cfg.dt) > 1e-12 * cfg.dt:
                raise ValueError(f"path dt = {path.dt} differs from the problem's dt = {cfg.dt}")
            if path.K != model.K:
                raise ValueError(f"path K = {path.K} differs from the model's K = {model.K}")
            if path.n_steps < n_steps:
                raise ValueError(f"path n_steps = {path.n_steps} is fewer than the "
                                 f"problem's {n_steps}")
        paths = [path] if path is not None else [
            WienerPath.generate(s, cfg.dt, model.K, n_steps) for s in seeds]
        increments = np.stack([p.increments[:n_steps] for p in paths])  # (B, n, K)

    B, N = len(seeds), space.N
    coeffs = np.empty((B, n_steps + 1, N))
    coeffs[:, 0] = problem.v0
    diagnostics = np.zeros((7, B, n_steps))
    errors: dict[int, IntegratorError] = {}  # the first error of each failed row
    r0 = interpolation_exponent(params.p, space.d)
    c = coeffs[:, 0]
    force_coeffs = forcing_term(space, forcing)  # the body force is steady
    w = space.quad_weight
    # a diverging row overflows quietly; at its first non-finite diagnostic
    # or state it records an IntegratorError and rides on as a zero row
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # one left-point evaluation feeds the diagnostics and the step
            grad = velocity_gradient(space, c)
            eps = symmetric_part(grad)
            v = synthesize(space, c)
            stress = eval_stress(params, eps)
            noise_part = np.zeros_like(c)
            diag = diagnostics[:, :, n]
            stress_diss, stab_int, force_work, grad_lp, vel_rq, mart, qv = diag
            stress_diss[:] = w * _row_sums(stress * eps)
            grad_lp[:] = w * _row_sums(np.sum(grad ** 2, axis=(-2, -1)) ** (params.p / 2.0))
            vmag = np.linalg.norm(v, axis=-1)
            vel_rq[:] = w * _row_sums(vmag ** r0)
            if params.alpha > 0.0:
                stab_int[:] = params.alpha * w * _row_sums(vmag ** params.q)
            if forcing is not None:
                force_work[:] = w * _row_sums(forcing[:, None] * v)
            if model is not None:
                sigma = assemble_diffusion(model, space, v)  # (B, N, K)
                noise_part = (sigma @ increments[:, n][:, :, None])[..., 0]
                mart[:] = np.einsum("bn,bn->b", c, noise_part)
                qv[:] = np.sum(sigma ** 2, axis=(1, 2)) * cfg.dt

            failed = {int(row): IntegratorError("non-finite diagnostics", n)
                      for row in np.flatnonzero(~np.all(np.isfinite(diag), axis=0))}
            c, step_failed = step(params, space, force_coeffs, c, cfg, n, v, stress, noise_part)
            for row, exc in {**step_failed, **failed}.items():
                errors.setdefault(row, exc)
            if len(errors) == B:
                break
            c[list(errors)] = 0.0
            coeffs[:, n + 1] = c

    times = cfg.dt * np.arange(n_steps + 1)
    results = [Trajectory(
        problem=problem, times=times, coeffs=coeffs[row],
        increments=None if increments is None else increments[row],
        stress_diss=diagnostics[0, row], stab_int=diagnostics[1, row],
        force_work=diagnostics[2, row], grad_lp=diagnostics[3, row],
        vel_rq=diagnostics[4, row], mart=diagnostics[5, row], qv=diagnostics[6, row],
        seed=seeds[row],
    ) if row not in errors else errors[row] for row in range(B)]
    if batched:
        return results
    if errors:
        raise errors[0]
    return results[0]

