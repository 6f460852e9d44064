"""Property suites behind the `verify` CLI command.

Each suite runs a moderate-size version of the module invariants and
returns a machine-readable report: suite name, per-check tolerance and
maximum observed deviation.  The full-size versions live in the pytest
acceptance module.
"""
from __future__ import annotations

import numpy as np

from . import analysis, pressure, truncation
from .basis import (analyze, build_space, suggest_grid, symmetric_gradient, symmetric_part,
                    synthesize, velocity_gradient)
from .constitutive import ConstitutiveParams, growth_bounds_check, monotonicity_gap
from .galerkin import Problem, SdeStepConfig, run_coupled
from .noise import NoiseModel, WienerPath, growth_bound_holds, mode_decay_bound_holds


def _check(name: str, tolerance: float, deviation: float) -> dict:
    return {
        "name": name,
        "tolerance": tolerance,
        "max_deviation": float(deviation),
        "passed": bool(deviation <= tolerance),
    }


def _random_symmetric(rng, n, d):
    return symmetric_part(rng.standard_normal((n, d, d)))


def suite_constitutive() -> list[dict]:
    rng = np.random.default_rng(7)
    checks = []
    for p in (1.2, 1.6, 2.0, 2.5, 3.0):
        for d in (2, 3):
            params = ConstitutiveParams(p=p)
            e1 = _random_symmetric(rng, 10_000, d)
            e2 = _random_symmetric(rng, 10_000, d)
            gap = monotonicity_gap(params, e1, e2)
            checks.append(_check(f"monotonicity_p{p}_d{d}", 1e-12, -float(np.min(gap))))
            ok = growth_bounds_check(params, e1)
            checks.append(_check(f"growth_bounds_p{p}_d{d}", 0.0, 0.0 if ok else 1.0))
    params = ConstitutiveParams(p=2.0)
    e1 = _random_symmetric(rng, 1000, 2)
    e2 = _random_symmetric(rng, 1000, 2)
    gap = monotonicity_gap(params, e1, e2)
    exact = params.nu0 * np.sum((e1 - e2) ** 2, axis=(-2, -1))
    rel = np.max(np.abs(gap - exact) / np.maximum(exact, 1e-300))
    checks.append(_check("newtonian_gap_identity", 1e-10, rel))
    return checks


def suite_basis() -> list[dict]:
    space = build_space(2, 32, suggest_grid(2, 32))
    checks = []
    fields = synthesize(space, np.eye(32))
    gram = space.quad_weight * np.einsum("xnd,xmd->nm", fields, fields)
    checks.append(_check("orthonormality", 1e-10, np.max(np.abs(gram - np.eye(32)))))
    div = np.einsum("xnii->nx", velocity_gradient(space, np.eye(32)))
    checks.append(_check("solenoidality", 1e-10, np.max(np.abs(div))))
    lam = space.eigenvalues
    checks.append(_check("eigen_ordering", 0.0, float(np.max(np.maximum(
        np.concatenate(([1.0 - lam[0]], lam[:-1] - lam[1:])), 0.0)))))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(16):
        c = rng.standard_normal(32)
        worst = max(worst, float(np.max(np.abs(analyze(space, synthesize(space, c)) - c))))
    checks.append(_check("round_trip", 1e-12, worst))
    eps = symmetric_gradient(space, rng.standard_normal((16, 32)))
    worst = float(np.max(np.abs(np.trace(eps, axis1=-2, axis2=-1))))
    checks.append(_check("eps_trace_free", 1e-10, worst))
    return checks


def suite_noise() -> list[dict]:
    rng = np.random.default_rng(11)
    checks = []
    for family in ("additive", "linear", "smooth_norm"):
        model = NoiseModel(family=family, K=16)
        xi = 10.0 * rng.standard_normal((2000, 2))
        ok1 = growth_bound_holds(model, xi)
        ok2 = mode_decay_bound_holds(model, xi)
        checks.append(_check(f"linear_growth_{family}", 0.0, 0.0 if ok1 else 1.0))
        checks.append(_check(f"mode_decay_{family}", 0.0, 0.0 if ok2 else 1.0))
    path_a = WienerPath.generate(5, 1e-2, 8, 50)
    path_b = WienerPath.generate(5, 1e-2, 8, 50)
    checks.append(_check("path_reproducibility", 0.0,
                         float(np.max(np.abs(path_a.increments - path_b.increments)))))
    return checks


def suite_truncation() -> list[dict]:
    checks = []
    s_plateau = np.linspace(0.0, 2.0, 501)
    s_tail = np.linspace(0.0, 300.0, 2001)
    ratios = []
    space = build_space(2, 8, suggest_grid(2, 8))
    rng = np.random.default_rng(2)
    # dyadic rescales of each base field populate every truncation annulus
    fields = []
    for _ in range(3):
        c = rng.standard_normal(8)
        peak = np.max(np.linalg.norm(synthesize(space, c), axis=-1))
        fields.extend(c / peak * 2.0 ** j for j in range(1, 9))
    for L in range(1, 11):
        fam = truncation.TruncationFamily(L=L)
        dev = np.max(np.abs(truncation.eval_Psi_L(fam, s_plateau) - L))
        checks.append(_check(f"plateau_L{L}", 1e-12, dev))
        beyond = s_tail[s_tail >= 2.0 ** (L + 1)]
        if beyond.size:
            checks.append(_check(f"support_L{L}", 1e-12,
                                 np.max(np.abs(truncation.eval_Psi_L(fam, beyond)))))
        ratios.append(max(truncation.gradient_bound_ratio(fam, space, c) for c in fields))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    checks.append(_check("gradient_bound_uniform_in_L", 0.05, spread))
    checks.append(_check("gradient_bound_constant", 4.0, max(ratios)))
    return checks


def suite_pressure() -> list[dict]:
    space = build_space(2, 8, 11)
    checks = []
    x1 = space.points[:, 0]
    H = np.zeros((space.M ** 2, 2, 2))
    H[:, 0, 0] = np.cos(x1)
    pi = pressure.solve_pi_H(space, H)
    checks.append(_check("analytic_pi_H", 1e-10, np.max(np.abs(pi - (-np.cos(x1))))))
    checks.append(_check("mean_zero", 1e-12, abs(float(np.mean(pi)))))
    rng = np.random.default_rng(9)
    h1 = rng.standard_normal((space.M ** 2, 2, 2))
    h2 = rng.standard_normal((space.M ** 2, 2, 2))
    lin = pressure.solve_pi_H(space, h1 + 2.0 * h2) - (
        pressure.solve_pi_H(space, h1) + 2.0 * pressure.solve_pi_H(space, h2))
    checks.append(_check("linearity", 1e-10, np.max(np.abs(lin))))
    return checks


def suite_ito() -> list[dict]:
    params = ConstitutiveParams(p=2.0, nu0=1.0)
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=8)
    v0 = np.zeros(4)
    v0[0] = 1.0
    problem = Problem(params, space, model, None, v0, SdeStepConfig(dt=2.5e-3), 200)
    n_seeds = 16
    # dt = 1e-2, 5e-3, 2.5e-3 on one Wiener path per seed
    levels = run_coupled(problem, range(100, 100 + n_seeds), [4, 2, 1])
    residuals = np.zeros(3)
    for i, level in enumerate(levels):
        for traj in level:
            residuals[i] += analysis.energy_identity_residual(traj)
    residuals /= n_seeds
    order = float(np.mean(analysis.refinement_orders(list(residuals))))
    # empirical order must be at least the strong noise order 1/2
    return [_check("ito_residual_order", 0.0, max(0.0, 0.5 - order))]


def suite_energy() -> list[dict]:
    params = ConstitutiveParams(p=1.8, alpha=0.1)
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=8)
    v0 = np.zeros(4)
    v0[0] = 1.0
    problem = Problem(params, space, model, None, v0, SdeStepConfig(dt=5e-3), 40)
    rep_a = analysis.ensemble_moments(problem, base_seed=100, n_traj=16)
    rep_b = analysis.ensemble_moments(problem, base_seed=900, n_traj=16)
    se = max(rep_a.se_total(), rep_b.se_total(), 1e-12)
    dev = abs(rep_a.mean_total() - rep_b.mean_total()) / (3.0 * se)
    return [_check("seed_stability_3se", 1.0, dev)]


SUITES = {
    "constitutive": suite_constitutive,
    "basis": suite_basis,
    "noise": suite_noise,
    "truncation": suite_truncation,
    "pressure": suite_pressure,
    "ito": suite_ito,
    "energy": suite_energy,
}


def run_suite(name: str) -> dict:
    checks = SUITES[name]()
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
