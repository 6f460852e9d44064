import numpy as np
import pytest

from powerlaw_spde import analysis
from powerlaw_spde.basis import build_space, suggest_grid, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import IntegratorError, SdeStepConfig, run_trajectory
from powerlaw_spde.noise import NoiseModel


def make_space(N=4):
    return build_space(2, N, suggest_grid(2, N))


def test_moment_exponent_values():
    assert abs(analysis.moment_exponent(ConstitutiveParams(p=2.0, d=2)) - 4.0) < 1e-14
    assert abs(analysis.moment_exponent(ConstitutiveParams(p=3.0, d=2)) - 6.0) < 1e-14
    # below p = 2 the Newtonian branch 2(d+2)/d dominates
    assert abs(analysis.moment_exponent(ConstitutiveParams(p=1.6, d=3))
               - 10.0 / 3.0) < 1e-14


def test_energy_identity_exact_for_rest_state():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    cfg = SdeStepConfig(dt=0.01)
    traj = run_trajectory(params, space, None, None,
                          np.zeros(4), cfg, 10)
    check = analysis.energy_identity_residual(traj)
    assert check.residual == 0.0
    assert np.all(check.lhs == 0.0)


def test_energy_identity_deterministic_first_order():
    space = make_space()
    params = ConstitutiveParams(p=1.8, alpha=0.1, d=2)
    v0 = np.array([1.0, 0.0, 0.5, 0.0])
    residuals = []
    for dt, n in ((1e-2, 20), (5e-3, 40), (2.5e-3, 80)):
        traj = run_trajectory(params, space, None, None,
                              v0, SdeStepConfig(dt=dt), n)
        residuals.append(analysis.energy_identity_residual(traj).residual)
    orders = analysis.refinement_orders(residuals)
    assert min(orders) > 0.8  # deterministic part converges at order one


def test_energy_identity_stochastic_half_order():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    model = NoiseModel(family="linear", K=8, d=2)
    forcing = None
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    factors = [4, 2, 1]
    residuals = np.zeros(3)
    n_seeds = 24
    for s in range(n_seeds):
        paths = analysis.coupled_paths(100 + s, 2.5e-3, 8, 200, factors)
        for i, (factor, path) in enumerate(zip(factors, paths)):
            traj = run_trajectory(params, space, model, forcing, v0,
                                  SdeStepConfig(dt=2.5e-3 * factor),
                                  200 // factor, seed=100 + s, path=path)
            residuals[i] += analysis.energy_identity_residual(traj).residual
    residuals /= n_seeds
    orders = analysis.refinement_orders(list(residuals))
    assert float(np.mean(orders)) >= 0.5


def test_report_totals_and_moments():
    space = make_space()
    params = ConstitutiveParams(p=2.0, alpha=0.1, d=2)
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    trajs, failures = analysis.run_ensemble(params, space, model, None,
                                            np.array([1.0, 0.0, 0.0, 0.0]), cfg, 20, 5, 4)
    assert failures == []
    report = analysis.report_from_trajectories(trajs)
    assert len(report.total) == 4
    assert np.all(report.total >= report.sup_l2_sq)
    assert abs(report.beta - 4.0) < 1e-14
    mom, se = report.moment_beta()
    assert mom > 0.0 and se >= 0.0
    d = report.as_dict()
    assert d["n_traj"] == 4
    assert abs(d["mean_total"] - report.mean_total()) < 1e-15


def test_run_ensemble_seeds_are_consecutive():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    trajs, _ = analysis.run_ensemble(params, space, model, None,
                                     v0, cfg, 10, 7, 3)
    single = run_trajectory(params, space, model, None,
                            v0, cfg, 10, seed=8)
    assert [t.seed for t in trajs] == [7, 8, 9]
    assert np.array_equal(trajs[1].coeffs, single.coeffs)
    with pytest.raises(ValueError):
        analysis.ensemble_moments(params, space, model, None,
                                  v0, cfg, 10, 7, 1)


def test_deterministic_ensemble_has_zero_spread():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    cfg = SdeStepConfig(dt=0.01)
    report = analysis.ensemble_moments(params, space, None, None,
                                       np.array([1.0, 0.0, 0.0, 0.0]),
                                       cfg, 20, 0, 3)
    assert report.se_total() == 0.0
    assert abs(report.mean_total() - report.total[0]) < 1e-15
    # without noise or forcing the energy only decays
    assert abs(float(report.sup_l2_sq[0]) - 1.0) < 1e-12


def test_bound_ratio_normalization():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    cfg = SdeStepConfig(dt=0.01)
    report = analysis.ensemble_moments(params, space, None, None,
                                       np.array([1.0, 0.0, 0.0, 0.0]),
                                       cfg, 20, 0, 2)
    r = analysis.bound_ratio(report, 1.0, 0.0)
    assert abs(r - report.mean_total() / 2.0) < 1e-14


def test_alpha_independence_study_rows():
    space = make_space()
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    rows = analysis.alpha_independence_study(
        lambda a: ConstitutiveParams(p=1.8, alpha=a, d=2),
        space, model, None, v0, cfg, 20, 3, 4,
        [0.0, 0.1, 1.0])
    assert [r["alpha"] for r in rows] == [0.0, 0.1, 1.0]
    ratios = [r["ratio"] for r in rows]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


def test_stabilization_convergence_decreases():
    space = make_space()
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.005)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    rows = analysis.stabilization_convergence(
        lambda m: ConstitutiveParams(p=1.8, alpha=1.0 / m, d=2),
        space, model, None, v0, cfg, 40, 11, 4,
        [1.0, 10.0, 100.0])
    diffs = [r["mean_sq_diff"] for r in rows]
    assert len(diffs) == 2
    assert diffs[1] < diffs[0]


def fail_seed(monkeypatch, seed, alpha=None):
    """Make run_trajectory raise IntegratorError at step 3 for one seed
    (and, if given, one stabilization weight)."""

    def failing(params, *args, seed=None, **kwargs):
        if seed == failing.seed and alpha in (None, params.alpha):
            raise IntegratorError("injected", 3, residual=0.5)
        return run_trajectory(params, *args, seed=seed, **kwargs)

    failing.seed = seed
    monkeypatch.setattr(analysis, "run_trajectory", failing)


def test_run_ensemble_masks_integrator_failures(monkeypatch):
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    model = NoiseModel(family="linear", K=4, d=2)
    args = (params, space, model, None, np.array([1.0, 0.0, 0.0, 0.0]),
            SdeStepConfig(dt=0.01), 5)
    fail_seed(monkeypatch, 6)
    trajs, failures = analysis.run_ensemble(*args, 5, 3)
    assert [t.seed for t in trajs] == [5, 7]
    assert failures == [{"seed": 6, "step": 3, "residual": 0.5, "error": "step 3: injected"}]
    report = analysis.ensemble_moments(*args, 5, 3)
    assert len(report.total) == 2
    assert report.as_dict()["partial"] is True
    with pytest.raises(analysis.EnsembleError, match="1 of 2 trajectories completed, need 2"):
        analysis.ensemble_moments(*args, 6, 2)


def test_run_ensemble_propagates_other_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(analysis, "run_trajectory", broken)
    with pytest.raises(KeyError):
        analysis.run_ensemble(ConstitutiveParams(p=2.0, d=2), make_space(), None,
                              None, np.zeros(4),
                              SdeStepConfig(dt=0.01), 5, 0, 2)


def test_stabilization_convergence_pairs_by_seed(monkeypatch):
    space = make_space()
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    params = {m: ConstitutiveParams(p=1.8, alpha=1.0 / m, d=2) for m in (1.0, 10.0)}
    # seed 11 fails at m = 10 only
    fail_seed(monkeypatch, 11, alpha=0.1)
    (row,) = analysis.stabilization_convergence(
        params.get, space, model, None, v0, cfg, 10, 11, 3, [1.0, 10.0])
    expected = []
    for seed in (12, 13):
        a, b = (run_trajectory(params[m], space, model, None, v0, cfg,
                               10, seed=seed) for m in (1.0, 10.0))
        expected.append(cfg.dt * float(np.sum(np.sum((a.coeffs[:-1] - b.coeffs[:-1]) ** 2,
                                                     axis=1))))
    assert row["mean_sq_diff"] == float(np.mean(expected))
    assert [(f["m"], f["seed"]) for f in row["failed_trajectories"]] == [(10.0, 11)]


def test_interpolation_diagnostic_bounded():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    traj = run_trajectory(params, space, model, None,
                          np.array([1.0, 0.0, 0.0, 0.0]), cfg, 20, seed=2)
    val = analysis.interpolation_diagnostic(traj)
    assert 0.0 <= val < np.inf


def test_weak_solution_residual_galerkin_modes():
    N, N_big = 8, 16
    M = suggest_grid(2, N_big)
    space = build_space(2, N, M)
    test_space = build_space(2, N_big, M)
    params = ConstitutiveParams(p=1.8, alpha=0.1, d=2)
    model = NoiseModel(family="linear", K=8, d=2)
    forcing = None
    v0 = np.zeros(N)
    v0[0], v0[2] = 1.0, 0.5
    cfg = SdeStepConfig(dt=0.005)
    traj = run_trajectory(params, space, model, forcing, v0, cfg, 40, seed=9)
    # resolved modes satisfy the identity to solver precision
    for j in (1, 4, 8):
        res = analysis.weak_solution_residual(traj, model, forcing, space, j)
        assert res[0] == 0.0
        assert np.max(res) < 1e-12
    # unresolved modes see only the Galerkin truncation error, which is small
    # but generally nonzero
    res_hi = analysis.weak_solution_residual(traj, model, forcing, test_space, N_big)
    assert np.max(res_hi) < 1e-2
    with pytest.raises(ValueError):
        analysis.weak_solution_residual(traj, model, forcing, test_space, N_big + 1)


def test_weak_solution_residual_semi_implicit_scheme_aware():
    space = make_space(8)
    params = ConstitutiveParams(p=1.8, d=2)
    forcing = None
    v0 = np.zeros(8)
    v0[0] = 1.0
    cfg = SdeStepConfig(dt=0.005, scheme="semi_implicit")
    traj = run_trajectory(params, space, None, forcing, v0, cfg, 20)
    res = analysis.weak_solution_residual(traj, None, forcing, space, 1)
    assert np.max(res) < 1e-8  # right-point stress matches the implicit solve


def test_refinement_orders():
    assert np.allclose(analysis.refinement_orders([4.0, 2.0, 1.0]), [1.0, 1.0])
    assert np.allclose(analysis.refinement_orders([1.0, 0.25]), [2.0])


def test_coupled_paths_are_consistent():
    paths = analysis.coupled_paths(3, 1e-3, 4, 120, [4, 2, 1])
    assert [p.n_steps for p in paths] == [30, 60, 120]
    assert np.allclose(paths[0].increments.sum(axis=0),
                       paths[2].increments.sum(axis=0))
    assert np.allclose(paths[1].increments[0],
                       paths[2].increments[:2].sum(axis=0))
