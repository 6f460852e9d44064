"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and asserts the criterion at its stated
tolerance.
"""
import dataclasses
import json

import numpy as np

from powerlaw_spde import analysis, pressure
from powerlaw_spde.basis import (
    build_space,
    suggest_grid,
    synthesize,
)
from powerlaw_spde.cli import main as cli_main
from powerlaw_spde.constitutive import ConstitutiveParams, monotonicity_gap
from powerlaw_spde.galerkin import (
    Problem,
    SdeStepConfig,
    run_trajectory,
    trilinear_convection,
)
from powerlaw_spde.noise import (
    NoiseModel,
    apply_phi,
    growth_bound_holds,
    hilbert_schmidt_norm_sq,
    mode_decay_bound_holds,
)
from powerlaw_spde.truncation import (
    TruncationFamily,
    eval_Psi_L,
    gradient_bound_ratio,
)


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def _random_symmetric(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def test_criterion_1_constitutive_monotonicity():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for p in (1.2, 1.6, 2.0, 2.5, 3.0):
        for d in (2, 3):
            params = ConstitutiveParams(p=p)
            e1 = _random_symmetric(rng, 100_000, d)
            e2 = _random_symmetric(rng, 100_000, d)
            worst_gap = min(worst_gap, float(np.min(monotonicity_gap(params, e1, e2))))
    params = ConstitutiveParams(p=2.0, nu0=1.4)
    e1 = _random_symmetric(rng, 100_000, 2)
    e2 = _random_symmetric(rng, 100_000, 2)
    gap = monotonicity_gap(params, e1, e2)
    exact = 1.4 * np.sum((e1 - e2) ** 2, axis=(-2, -1))
    rel = float(np.max(np.abs(gap - exact) / np.maximum(exact, 1e-300)))
    ok = worst_gap >= -1e-12 and rel <= 1e-10
    _verdict(1, "constitutive monotonicity", ok,
             f"min gap {worst_gap:.2e}, newtonian rel err {rel:.2e}")


def test_criterion_2_basis_exactness():
    worst_gram = worst_div = worst_rt = 0.0
    rng = np.random.default_rng(102)
    for N in (8, 16, 32, 64):
        space = build_space(2, N, suggest_grid(2, N))
        fields = synthesize(space, np.eye(N))
        gram = space.quad_weight * np.einsum("xnd,xmd->nm", fields, fields)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(N)))))
        for k in range(N):
            div = pressure.divergence_vector(space, fields[:, k])
            worst_div = max(worst_div, float(np.max(np.abs(div))))
        for _ in range(8):
            c = rng.standard_normal(N)
            from powerlaw_spde.basis import analyze
            worst_rt = max(worst_rt, float(np.max(np.abs(
                analyze(space, synthesize(space, c)) - c))))
    ok = worst_gram <= 1e-10 and worst_div <= 1e-10 and worst_rt <= 1e-12
    _verdict(2, "basis exactness up to N=64", ok,
             f"gram {worst_gram:.2e}, div {worst_div:.2e}, roundtrip {worst_rt:.2e}")


def test_criterion_3_convection_skew_symmetry():
    space = build_space(2, 16, suggest_grid(2, 16))
    rng = np.random.default_rng(103)
    ok = True
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(16)
        b = abs(trilinear_convection(space, v, v, v))
        bound = 1e-8 * (1.0 + float(np.linalg.norm(v)) ** 3)
        worst = max(worst, b / bound)
        ok = ok and b <= bound
    _verdict(3, "skew-symmetry of convection over 1000 states", ok,
             f"max |b(v,v,v)|/bound {worst:.2e}")


def test_criterion_4_ito_energy_identity():
    params = ConstitutiveParams(p=2.0)
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=8)
    forcing = None
    v0 = np.zeros(4)
    v0[0] = 1.0
    factors = [4, 2, 1]  # dt = 1e-2, 5e-3, 2.5e-3 over [0, 0.5]
    residuals = np.zeros(3)
    n_seeds = 32
    for s in range(n_seeds):
        paths = analysis.coupled_paths(100 + s, 2.5e-3, 8, 200, factors)
        for i, (factor, path) in enumerate(zip(factors, paths)):
            traj = run_trajectory(Problem(params, space, model, forcing, v0,
                                          SdeStepConfig(dt=2.5e-3 * factor), 200 // factor),
                                  seed=100 + s, path=path)
            residuals[i] += analysis.energy_identity_residual(traj).residual
    residuals /= n_seeds
    order = float(np.mean(analysis.refinement_orders(list(residuals))))

    # deterministic single-mode decay: c(t) ~ exp(-nu0 lambda t / 2)
    traj = run_trajectory(Problem(params, space, None, forcing, v0,
                                  SdeStepConfig(dt=1e-3), 500))
    rate = float(np.log(traj.coeffs[-1, 0] / traj.coeffs[0, 0]) / traj.times[-1])
    target = -params.nu0 * space.eigenvalues[0] / 2.0
    rate_err = abs(rate - target) / abs(target)
    ok = order >= 0.5 and rate_err <= 0.01
    _verdict(4, "Ito energy identity", ok,
             f"empirical order {order:.3f}, decay rate error {rate_err:.2e}")


def test_criterion_5_energy_estimate_uniformity():
    model = NoiseModel(family="linear", K=8)
    cfg = SdeStepConfig(dt=5e-3)
    n_steps = 50
    ratios = []
    for N in (4, 8, 16):
        space = build_space(2, N, suggest_grid(2, N))
        forcing = synthesize(space, 0.5 * np.eye(N)[0])
        v0 = np.zeros(N)
        v0[0] = 1.0
        f_sq = n_steps * cfg.dt * space.quad_weight * float(np.sum(forcing ** 2))
        for alpha in (1.0, 0.1, 0.01):
            params = ConstitutiveParams(p=1.6, alpha=alpha)
            report = analysis.ensemble_moments(
                Problem(params, space, model, forcing, v0, cfg, n_steps),
                base_seed=500, n_traj=64)
            ratios.append(analysis.bound_ratio(report, 1.0, f_sq))
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    _verdict(5, "energy estimate uniform in N and alpha", ok,
             f"ratio spread max/min {spread:.3f}")


def test_criterion_6_higher_moments_seed_stability():
    params = ConstitutiveParams(p=2.0)
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=8)
    forcing = None
    v0 = np.zeros(4)
    v0[0] = 1.0
    cfg = SdeStepConfig(dt=5e-3)
    reports = [
        analysis.ensemble_moments(Problem(params, space, model, forcing, v0, cfg, 50),
                                  base_seed=seed, n_traj=64)
        for seed in (1000, 5000)
    ]
    (m_a, se_a), (m_b, se_b) = (r.moment_beta() for r in reports)
    combined_se = float(np.hypot(se_a, se_b))
    deviation = abs(m_a - m_b) / max(combined_se, 1e-300)
    ok = np.isfinite(m_a) and np.isfinite(m_b) and deviation <= 3.0
    _verdict(6, "beta/2 moment stable across seeds", ok,
             f"deviation {deviation:.2f} standard errors")


def test_criterion_7_truncation_family():
    plateau = np.linspace(0.0, 2.0, 1001)
    ok = True
    space = build_space(2, 8, suggest_grid(2, 8))
    rng = np.random.default_rng(107)
    fields = []
    for _ in range(3):
        c = rng.standard_normal(8)
        peak = np.max(np.linalg.norm(synthesize(space, c), axis=-1))
        fields.extend(c / peak * 2.0 ** j for j in range(1, 9))
    ratios = []
    for L in range(1, 11):
        fam = TruncationFamily(L=L)
        ok = ok and float(np.max(np.abs(eval_Psi_L(fam, plateau) - L))) == 0.0
        tail = np.linspace(2.0 ** (L + 1), 2.0 ** (L + 2), 100)
        ok = ok and float(np.max(np.abs(eval_Psi_L(fam, tail)))) == 0.0
        ratios.append(max(gradient_bound_ratio(fam, space, c) for c in fields))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = ok and spread < 0.05
    _verdict(7, "truncation family plateau/support and uniform gradient bound",
             ok, f"ratio spread {spread:.2%}")


def test_criterion_8_pressure_decomposition():
    space = build_space(2, 8, suggest_grid(2, 8))
    x1 = space.points[:, 0]
    H = np.zeros((space.M ** 2, 2, 2))
    H[:, 0, 0] = np.cos(x1)
    analytic_err = float(np.max(np.abs(pressure.solve_pi_H(space, H) + np.cos(x1))))

    params = ConstitutiveParams(p=2.0)
    forcing = None
    v0 = np.zeros(8)
    v0[0] = 1.0
    rng = np.random.default_rng(108)
    test = rng.standard_normal((space.M ** 2, 2))
    residuals = []
    for dt, n in ((1e-2, 20), (5e-3, 40)):
        traj = run_trajectory(Problem(params, space, None, forcing, v0,
                                      SdeStepConfig(dt=dt, scheme="semi_implicit"), n))
        dec = pressure.decompose(traj)
        # read with left points throughout, the semi-implicit path shows its
        # time-discretization error; under its own quadrature (implicit
        # stress at C_{n+1}) it satisfies the identity to round-off
        left_point = dataclasses.replace(
            traj, problem=dataclasses.replace(traj.problem, cfg=SdeStepConfig(dt=dt)))
        residuals.append(pressure.weak_residual(left_point, dec, test))
    ratio = residuals[0] / residuals[1]
    pi_h = pressure.solve_pi_h(space)
    harmonic = float(np.max(np.abs(pressure.laplacian(space, pi_h))))
    ok = analytic_err <= 1e-10 and 1.7 <= ratio <= 2.3 and harmonic == 0.0
    _verdict(8, "pressure decomposition", ok,
             f"analytic err {analytic_err:.2e}, dt-halving ratio {ratio:.2f}, "
             f"lap(pi_h) {harmonic:.1e}")


def test_criterion_9_noise_model_bounds():
    rng = np.random.default_rng(109)
    ok = True
    for family in ("additive", "linear", "smooth_norm"):
        for d in (2, 3):
            model = NoiseModel(family=family, K=16)
            xi = 20.0 * rng.standard_normal((10_000, d))
            ok = ok and growth_bound_holds(model, xi)
            ok = ok and mode_decay_bound_holds(model, xi)
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=16)
    v0_mag = 1.3
    vals = np.stack([v0_mag * np.cos(space.points[:, 0]),
                     v0_mag * np.sin(space.points[:, 0])], axis=-1)
    hs = hilbert_schmidt_norm_sq(
        space, apply_phi(model, space, vals))
    target = v0_mag ** 2 * (2.0 * np.pi) ** 2 / 3.0
    rel = abs(hs - target) / target
    ok = ok and rel <= 1e-6
    _verdict(9, "noise growth/decay bounds and HS geometric value", ok,
             f"HS rel err {rel:.2e}")


def test_criterion_10_stabilization_vanishing():
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=8)
    forcing = None
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    cfg = SdeStepConfig(dt=5e-3)
    rows = analysis.stabilization_convergence(
        Problem(ConstitutiveParams(p=1.8), space, model, forcing, v0, cfg, 50),
        base_seed=1100, n_traj=16, m_grid=[1.0, 10.0, 100.0])
    diffs = [r["mean_sq_diff"] for r in rows]
    ok = diffs[1] < diffs[0]
    _verdict(10, "stabilization vanishes along m = 1, 10, 100", ok,
             f"E||v^1-v^10||^2 = {diffs[0]:.3e} > E||v^10-v^100||^2 = {diffs[1]:.3e}")


def test_criterion_11_bit_identical_reruns(tmp_path):
    cfg = {
        "d": 2, "p": 1.8, "N": 8, "dt": 5e-3, "T_end": 0.1,
        "noise_family": "smooth_norm", "K": 8, "seed": 42,
        "initial_coeffs": [1.0, 0.0, 0.5],
    }
    cfg_path = tmp_path / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b)])
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trajectory.csv", "coefficients.json", "config.json")
    )
    ok = code_a == 0 and code_b == 0 and same
    _verdict(11, "bit-identical outputs for fixed config and seed", ok)
