"""Energy identities, Monte Carlo moments, and convergence studies.

Every runner takes a galerkin.Problem and seeds; the two stabilization
studies run the problem with its params.alpha replaced at each grid point,
all of which are built before the first trajectory runs.  A dt-refinement
study runs its levels on common Wiener paths with galerkin.run_coupled and
reads their orders with refinement_orders.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import is_count
from .galerkin import (
    IntegratorError,
    Problem,
    Trajectory,
    interpolation_exponent,
    run_trajectory,
)
from .noise import check_seed


def moment_exponent(p: float, d: int) -> float:
    """beta = max{2(d+2)/d, p(d+2)/d}."""
    return max(2.0 * (d + 2) / d, p * (d + 2) / d)


def energy_identity_residual(traj: Trajectory) -> float:
    """Discrete analogue of the Ito identity for the kinetic energy: the
    maximum over the recorded times of |lhs - rhs|, for lhs = 0.5|C(t)|^2
    and rhs = 0.5|C(0)|^2 - int int S:eps(v) - alpha int int |v|^q
    + int int f.v + martingale + 0.5 * quadratic variation, with left-point
    sums for the time integrals.
    """
    energy = 0.5 * traj.energy()
    dt = traj.dt
    drift_part = dt * np.cumsum(-traj.stress_diss - traj.stab_int + traj.force_work)
    noise_part = np.cumsum(traj.mart) + 0.5 * np.cumsum(traj.qv)
    rhs = energy[0] + np.concatenate(([0.0], drift_part + noise_part))
    return float(np.max(np.abs(energy - rhs)))


@dataclass
class EnergyReport:
    """Per-trajectory and ensemble energy moments."""

    sup_l2_sq: np.ndarray
    grad_lp: np.ndarray
    stab_lq: np.ndarray
    interp_lr0: np.ndarray
    beta: float
    r0: float
    failures: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for name in ("sup_l2_sq", "grad_lp", "stab_lq", "interp_lr0"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> np.ndarray:
        """sup ||v||^2 + int |grad v|^p + alpha int |v|^q per trajectory."""
        return self.sup_l2_sq + self.grad_lp + self.stab_lq

    def mean_total(self) -> float:
        return float(np.mean(self.total))

    def se_total(self) -> float:
        n = len(self.total)
        return float(np.std(self.total, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    def moment_beta(self) -> tuple[float, float]:
        """Monte Carlo mean and standard error of total^(beta/2); raises
        EnsembleError naming beta when either overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            powered = self.total ** (self.beta / 2.0)
            n = len(powered)
            se = float(np.std(powered, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            mean = float(np.mean(powered))
        if not (np.isfinite(mean) and np.isfinite(se)):
            raise EnsembleError(f"the moment of order beta = {self.beta!r} overflows "
                                f"(mean {mean!r}, standard error {se!r}); lower beta")
        return mean, se

    def as_dict(self) -> dict:
        mom, mom_se = self.moment_beta()
        return {
            "n_traj": len(self.total),
            "mean_sup_l2_sq": float(np.mean(self.sup_l2_sq)),
            "mean_grad_lp": float(np.mean(self.grad_lp)),
            "mean_stab_lq": float(np.mean(self.stab_lq)),
            "mean_interp_lr0": float(np.mean(self.interp_lr0)),
            "mean_total": self.mean_total(),
            "se_total": self.se_total(),
            "beta": self.beta,
            "r0": self.r0,
            "moment_beta_mean": mom,
            "moment_beta_se": mom_se,
            **failure_summary(self.failures),
        }


def report_from_trajectories(trajectories: list[Trajectory], beta: float | None = None) -> EnergyReport:
    problem = trajectories[0].problem
    p, d = problem.params.p, problem.space.d
    if beta is None:
        beta = moment_exponent(p, d)
    return EnergyReport(
        sup_l2_sq=np.array([np.max(t.energy()) for t in trajectories]),
        grad_lp=np.array([t.dt * np.sum(t.grad_lp) for t in trajectories]),
        stab_lq=np.array([t.dt * np.sum(t.stab_int) for t in trajectories]),
        interp_lr0=np.array([t.dt * np.sum(t.vel_rq) for t in trajectories]),
        beta=beta,
        r0=interpolation_exponent(p, d),
    )


class EnsembleError(RuntimeError):
    """Raised when too few trajectories of an ensemble complete, or when
    their moment overflows."""


def failure_summary(failures: list[dict]) -> dict:
    """The keys a report gains when some trajectories failed; none otherwise."""
    return {"failed_trajectories": failures, "partial": True} if failures else {}


def run_ensemble(problem: Problem, base_seed: int, n_traj: int,
                 min_complete: int = 1) -> tuple[list[Trajectory], list[dict]]:
    """Independent trajectories with seeds base_seed, base_seed+1, ...,
    stepped in lockstep as one batch.

    Returns the completed trajectories in seed order and a record
    {seed, step, residual, error} per seed whose row failed with
    IntegratorError and was masked (any other exception is a bug and
    propagates); raises EnsembleError when fewer than min_complete
    trajectories complete.  Before any run, base_seed must pass
    noise.check_seed (FieldError naming seed), and n_traj must be an integer
    >= 1 (ValueError naming n_traj; a bool is not one).
    """
    base_seed = check_seed(base_seed)
    if not is_count(n_traj, 1):
        raise ValueError(f"n_traj must be an integer >= 1 of trajectories, got {n_traj!r}")
    seeds = range(base_seed, base_seed + n_traj)
    rows = run_trajectory(problem, seed=seeds)
    trajectories = [row for row in rows if isinstance(row, Trajectory)]
    failures = [{"seed": seed, "step": row.step, "residual": row.residual, "error": str(row)}
                for seed, row in zip(seeds, rows) if isinstance(row, IntegratorError)]
    if len(trajectories) < min_complete:
        raise EnsembleError(f"{len(trajectories)} of {n_traj} trajectories completed, "
                            f"need {min_complete}; failures: {failures}")
    return trajectories, failures


def ensemble_moments(problem: Problem, base_seed: int, n_traj: int,
                     beta: float | None = None) -> EnergyReport:
    if n_traj < 2:
        raise ValueError("ensemble statistics need at least two trajectories")
    trajs, failures = run_ensemble(problem, base_seed, n_traj, min_complete=2)
    report = report_from_trajectories(trajs, beta=beta)
    report.failures = failures
    return report


def bound_ratio(
    report: EnergyReport,
    v0_l2_sq: float,
    forcing_l2q_sq: float,
) -> float:
    """R = E[total] / (1 + E||v0||^2 + E||f||^2_{L2(Q)})."""
    return report.mean_total() / (1.0 + v0_l2_sq + forcing_l2q_sq)


def _with_alphas(problem: Problem, alphas) -> list[Problem]:
    """The problem at each stabilization weight; an inadmissible weight
    (q below max(2p', 3)) raises ValueError here, before any run."""
    return [replace(problem, params=replace(problem.params, alpha=a)) for a in alphas]


def alpha_independence_study(problem: Problem, base_seed: int, n_traj: int,
                             alphas: list[float]) -> list[dict]:
    """Bound ratios across a stabilization-weight grid with shared seeds;
    an empty grid raises ValueError."""
    if len(alphas) == 0:
        raise ValueError("alphas: the stabilization-weight grid is empty")
    v0_sq = float(np.sum(problem.v0 ** 2))
    # ||f||^2_{L2(Q)} of the steady force
    f_sq = 0.0 if problem.forcing is None else (
        problem.n_steps * problem.cfg.dt * problem.space.quad_weight
        * float(np.sum(problem.forcing ** 2)))
    rows = []
    for alpha, at_alpha in zip(alphas, _with_alphas(problem, alphas)):
        report = ensemble_moments(at_alpha, base_seed, n_traj)
        rows.append({
            "alpha": alpha,
            "ratio": bound_ratio(report, v0_sq, f_sq),
            "mean_total": report.mean_total(),
            "se_total": report.se_total(),
            **failure_summary(report.failures),
        })
    return rows


def stabilization_convergence(problem: Problem, base_seed: int, n_traj: int,
                              m_grid: list[float]) -> list[dict]:
    """E||v^m - v^m'||^2_{L2(Q)} along consecutive m (alpha = 1/m) with
    shared seeds; a seed that failed at either m of a pair is left out of
    its mean.  Before any run, raises ValueError naming m_grid for a grid
    of fewer than two points or an entry m that is not finite and > 0 or
    whose 1/m is not finite."""
    if len(m_grid) < 2:
        raise ValueError(f"m_grid: needs at least two values to compare, got {list(m_grid)}")
    for m in m_grid:
        if not (0.0 < m < np.inf and np.isfinite(1.0 / m)):
            raise ValueError(f"m_grid: every m must be finite and > 0 with a finite 1/m, got {m!r}")
    problems = _with_alphas(problem, [1.0 / m for m in m_grid])
    runs = {m: run_ensemble(at_m, base_seed, n_traj) for m, at_m in zip(m_grid, problems)}
    rows = []
    for m_a, m_b in zip(m_grid[:-1], m_grid[1:]):
        by_seed = {t.seed: t for t in runs[m_b][0]}
        pairs = [(ta, by_seed[ta.seed]) for ta in runs[m_a][0] if ta.seed in by_seed]
        if not pairs:
            raise EnsembleError(f"no seed completed at both m = {m_a} and m = {m_b}")
        diffs = []
        for ta, tb in pairs:
            # ||v_a - v_b||^2_{L2(Q)} = dt sum_n |C_a - C_b|^2 (orthonormal basis)
            d = np.sum((ta.coeffs[:-1] - tb.coeffs[:-1]) ** 2, axis=1)
            diffs.append(problem.cfg.dt * float(np.sum(d)))
        failures = [{"m": m, **f} for m in (m_a, m_b) for f in runs[m][1]]
        rows.append({
            "m_pair": (m_a, m_b),
            "mean_sq_diff": float(np.mean(diffs)),
            **failure_summary(failures),
        })
    return rows


def refinement_orders(residuals: list[float]) -> list[float]:
    """Empirical convergence orders log2(r_i / r_{i+1}) for a dt-halving grid."""
    return [float(np.log2(a / b)) for a, b in zip(residuals[:-1], residuals[1:])]

