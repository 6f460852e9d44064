import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerlaw_spde import analysis, galerkin
from powerlaw_spde.basis import FieldError, build_space, suggest_grid, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import SCHEMES, IntegratorError, Problem, SdeStepConfig, run_trajectory
from powerlaw_spde.noise import NoiseModel


def make_space(N=4):
    return build_space(2, N, suggest_grid(2, N))


def test_moment_exponent_values():
    assert abs(analysis.moment_exponent(2.0, 2) - 4.0) < 1e-14
    assert abs(analysis.moment_exponent(3.0, 2) - 6.0) < 1e-14
    # below p = 2 the Newtonian branch 2(d+2)/d dominates
    assert abs(analysis.moment_exponent(1.6, 3) - 10.0 / 3.0) < 1e-14


def test_exponents_read_the_dimension_from_the_space():
    # the parameters carry no dimension: r0 = 5p/3 and beta on a 3-D space
    space = build_space(3, 4, suggest_grid(3, 4))
    problem = Problem(ConstitutiveParams(p=2.0), space, None, None, [1.0, 0.0, 0.0, 0.0],
                      SdeStepConfig(dt=0.01), 3)
    traj = run_trajectory(problem)
    report = analysis.report_from_trajectories([traj])
    assert (report.r0, report.beta) == (10.0 / 3.0, 10.0 / 3.0)
    v = synthesize(space, traj.coeffs[0])
    want = space.quad_weight * np.sum(np.linalg.norm(v, axis=-1) ** (10.0 / 3.0))
    assert abs(traj.vel_rq[0] - want) <= 1e-12 * want


def test_energy_identity_exact_for_rest_state():
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    cfg = SdeStepConfig(dt=0.01)
    traj = run_trajectory(Problem(params, space, None, None, np.zeros(4), cfg, 10))
    assert analysis.energy_identity_residual(traj) == 0.0
    assert np.all(traj.energy() == 0.0)


def test_energy_identity_deterministic_first_order():
    space = make_space()
    params = ConstitutiveParams(p=1.8, alpha=0.1)
    v0 = np.array([1.0, 0.0, 0.5, 0.0])
    residuals = []
    for dt, n in ((1e-2, 20), (5e-3, 40), (2.5e-3, 80)):
        traj = run_trajectory(Problem(params, space, None, None, v0, SdeStepConfig(dt=dt), n))
        residuals.append(analysis.energy_identity_residual(traj))
    orders = analysis.refinement_orders(residuals)
    assert min(orders) > 0.8  # deterministic part converges at order one


def test_energy_identity_stochastic_half_order():
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    model = NoiseModel(family="linear", K=8)
    forcing = None
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    problem = Problem(params, space, model, forcing, v0, SdeStepConfig(dt=2.5e-3), 200)
    n_seeds = 24
    levels = galerkin.run_coupled(problem, range(100, 100 + n_seeds), [4, 2, 1])
    residuals = np.zeros(3)
    for i, level in enumerate(levels):
        for traj in level:
            residuals[i] += analysis.energy_identity_residual(traj)
    residuals /= n_seeds
    orders = analysis.refinement_orders(list(residuals))
    assert float(np.mean(orders)) >= 0.5


def test_report_totals_and_moments():
    space = make_space()
    params = ConstitutiveParams(p=2.0, alpha=0.1)
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.01)
    problem = Problem(params, space, model, None, np.array([1.0, 0.0, 0.0, 0.0]), cfg, 20)
    trajs, failures = analysis.run_ensemble(problem, 5, 4)
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
    params = ConstitutiveParams(p=2.0)
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    problem = Problem(params, space, model, None, v0, cfg, 10)
    trajs, _ = analysis.run_ensemble(problem, 7, 3)
    single = run_trajectory(problem, seed=8)
    assert [t.seed for t in trajs] == [7, 8, 9]
    assert np.array_equal(trajs[1].coeffs, single.coeffs)
    with pytest.raises(ValueError):
        analysis.ensemble_moments(problem, 7, 1)


@pytest.mark.parametrize("base_seed", [2.5, True, -1])
def test_run_ensemble_refuses_a_base_seed_that_breaks_the_seed_rule(base_seed, call_counter):
    # 2.5 ended in a TypeError from range() and True ran seeds 1, 2 and 3
    runs = call_counter(analysis, "run_trajectory")
    with pytest.raises(FieldError, match="seed must be a nonnegative integer") as info:
        analysis.run_ensemble(_study_problem(), base_seed, 3)
    assert (info.value.field, runs) == ("seed", {"run_trajectory": 0})


@pytest.mark.parametrize("n_traj", [2.5, True, 0, "3"])
def test_run_ensemble_refuses_an_n_traj_that_is_not_a_positive_integer(n_traj, call_counter):
    runs = call_counter(analysis, "run_trajectory")
    with pytest.raises(ValueError, match="n_traj must be an integer >= 1"):
        analysis.run_ensemble(_study_problem(), 0, n_traj)
    assert runs == {"run_trajectory": 0}


def test_deterministic_ensemble_has_zero_spread():
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    cfg = SdeStepConfig(dt=0.01)
    report = analysis.ensemble_moments(
        Problem(params, space, None, None, np.array([1.0, 0.0, 0.0, 0.0]), cfg, 20), 0, 3)
    assert report.se_total() == 0.0
    assert abs(report.mean_total() - report.total[0]) < 1e-15
    # without noise or forcing the energy only decays
    assert abs(float(report.sup_l2_sq[0]) - 1.0) < 1e-12


def test_bound_ratio_normalization():
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    cfg = SdeStepConfig(dt=0.01)
    report = analysis.ensemble_moments(
        Problem(params, space, None, None, np.array([1.0, 0.0, 0.0, 0.0]), cfg, 20), 0, 2)
    r = analysis.bound_ratio(report, 1.0, 0.0)
    assert abs(r - report.mean_total() / 2.0) < 1e-14


def test_alpha_independence_study_rows():
    space = make_space()
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    rows = analysis.alpha_independence_study(
        Problem(ConstitutiveParams(p=1.8), space, model, None, v0, cfg, 20), 3, 4,
        [0.0, 0.1, 1.0])
    assert [r["alpha"] for r in rows] == [0.0, 0.1, 1.0]
    ratios = [r["ratio"] for r in rows]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


def test_stabilization_convergence_decreases():
    space = make_space()
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.005)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    rows = analysis.stabilization_convergence(
        Problem(ConstitutiveParams(p=1.8), space, model, None, v0, cfg, 40), 11, 4,
        [1.0, 10.0, 100.0])
    diffs = [r["mean_sq_diff"] for r in rows]
    assert len(diffs) == 2
    assert diffs[1] < diffs[0]


def test_grid_studies_replace_only_alpha(monkeypatch):
    # every grid point is the problem with params.alpha replaced; all are
    # built, and an inadmissible q refused, before the first trajectory runs
    problem = Problem(ConstitutiveParams(p=2.0, q=2.5), make_space(), None, None,
                      np.zeros(4), SdeStepConfig(dt=0.01), 2)
    (at_zero,) = analysis._with_alphas(problem, [0.0])
    assert at_zero.params == problem.params
    assert all(getattr(at_zero, name) is getattr(problem, name)
               for name in ("space", "model", "forcing", "v0", "cfg", "n_steps"))
    runs = []
    monkeypatch.setattr(analysis, "run_trajectory", lambda *a, **k: runs.append(a))
    with pytest.raises(ValueError, match="stabilization exponent q=2.5"):
        analysis.alpha_independence_study(problem, 0, 2, [0.0, 0.1])
    with pytest.raises(ValueError, match="stabilization exponent q=2.5"):
        analysis.stabilization_convergence(problem, 0, 2, [1.0, 10.0])
    assert runs == []


def test_grid_studies_refuse_a_grid_with_no_row(monkeypatch):
    # both used to return [] without a word
    problem = Problem(ConstitutiveParams(p=2.0), make_space(), None, None,
                      np.zeros(4), SdeStepConfig(dt=0.01), 2)
    runs = []
    monkeypatch.setattr(analysis, "run_trajectory", lambda *a, **k: runs.append(a))
    for m_grid in ([], [10.0]):
        with pytest.raises(ValueError, match="m_grid"):
            analysis.stabilization_convergence(problem, 0, 2, m_grid)
    with pytest.raises(ValueError, match="alphas"):
        analysis.alpha_independence_study(problem, 0, 2, [])
    assert runs == []


def fail_seed(monkeypatch, seed, alpha=None, at=3):
    """Make the batch row of one seed fail at step `at` with IntegratorError
    (and, if given, only at one stabilization weight); the other rows of
    the lockstep batch step on.  Calls stack, each adding one failure."""
    batch = {"seeds": []}  # the seeds of the ensemble batch being stepped
    inner_run, inner_step = analysis.run_trajectory, galerkin.step

    def run(problem, seed=None, **kwargs):
        batch["seeds"] = list(seed)
        try:
            return inner_run(problem, seed=seed, **kwargs)
        finally:
            batch["seeds"] = []

    def failing_step(problem, coeffs, step_index, increments, predictor=None):
        new, diagnostics, errors, predictor = inner_step(
            problem, coeffs, step_index, increments, predictor)
        if (step_index == at and seed in batch["seeds"]
                and alpha in (None, problem.params.alpha)):
            errors[batch["seeds"].index(seed)] = IntegratorError("injected", at, residual=0.5)
        return new, diagnostics, errors, predictor

    monkeypatch.setattr(analysis, "run_trajectory", run)
    monkeypatch.setattr(galerkin, "step", failing_step)


def test_run_ensemble_masks_integrator_failures(monkeypatch):
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    model = NoiseModel(family="linear", K=4)
    problem = Problem(params, space, model, None, np.array([1.0, 0.0, 0.0, 0.0]),
                      SdeStepConfig(dt=0.01), 5)
    fail_seed(monkeypatch, 6)
    trajs, failures = analysis.run_ensemble(problem, 5, 3)
    assert [t.seed for t in trajs] == [5, 7]
    assert failures == [{"seed": 6, "step": 3, "residual": 0.5, "error": "step 3: injected"}]
    report = analysis.ensemble_moments(problem, 5, 3)
    assert len(report.total) == 2
    assert report.as_dict()["partial"] is True
    with pytest.raises(analysis.EnsembleError, match="1 of 2 trajectories completed, need 2"):
        analysis.ensemble_moments(problem, 6, 2)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_failed_rows_keep_their_seeds(monkeypatch, scheme):
    # row b holds seed b for the whole run: two rows fail at different
    # steps, the later one in a higher row, and each record names its own
    # seed; every other row is bit-identical to its seed run alone
    problem = Problem(ConstitutiveParams(p=1.8, alpha=0.1), make_space(),
                      NoiseModel(family="linear", K=4), None,
                      np.array([1.0, 0.5, 0.0, 0.0]), SdeStepConfig(dt=0.01, scheme=scheme), 8)
    fail_seed(monkeypatch, 21, at=3)
    fail_seed(monkeypatch, 23, at=5)
    trajs, failures = analysis.run_ensemble(problem, 20, 5)
    assert failures == [{"seed": 21, "step": 3, "residual": 0.5, "error": "step 3: injected"},
                        {"seed": 23, "step": 5, "residual": 0.5, "error": "step 5: injected"}]
    assert [t.seed for t in trajs] == [20, 22, 24]
    for traj in trajs:
        alone = run_trajectory(problem, seed=traj.seed)
        for name in ("coeffs", "increments", "stress_diss", "stab_int", "force_work",
                     "grad_lp", "vel_rq", "mart", "qv"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name


def test_run_ensemble_propagates_other_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(analysis, "run_trajectory", broken)
    with pytest.raises(KeyError):
        analysis.run_ensemble(Problem(ConstitutiveParams(p=2.0), make_space(), None,
                                      None, np.zeros(4), SdeStepConfig(dt=0.01), 5), 0, 2)


def test_stabilization_convergence_pairs_by_seed(monkeypatch):
    space = make_space()
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    problems = {m: Problem(ConstitutiveParams(p=1.8, alpha=1.0 / m), space, model, None,
                           v0, cfg, 10) for m in (1.0, 10.0)}
    # seed 11 fails at m = 10 only
    fail_seed(monkeypatch, 11, alpha=0.1)
    (row,) = analysis.stabilization_convergence(problems[1.0], 11, 3, [1.0, 10.0])
    expected = []
    for seed in (12, 13):
        a, b = (run_trajectory(problems[m], seed=seed) for m in (1.0, 10.0))
        expected.append(cfg.dt * float(np.sum(np.sum((a.coeffs[:-1] - b.coeffs[:-1]) ** 2,
                                                     axis=1))))
    assert row["mean_sq_diff"] == float(np.mean(expected))
    assert [(f["m"], f["seed"]) for f in row["failed_trajectories"]] == [(10.0, 11)]


def test_refinement_orders():
    assert np.allclose(analysis.refinement_orders([4.0, 2.0, 1.0]), [1.0, 1.0])
    assert np.allclose(analysis.refinement_orders([1.0, 0.25]), [2.0])


def _study_problem(n_steps=8):
    return Problem(ConstitutiveParams(p=2.0), make_space(), NoiseModel(family="linear", K=4),
                   None, np.array([1.0, 0.0, 0.0, 0.0]), SdeStepConfig(dt=0.01), n_steps)


@pytest.mark.parametrize("factor", [0, -1, 1.5, 2.5, True])
def test_coupled_paths_refuse_a_bad_factor(factor, call_counter):
    # a factor <= 1 used to return the fine path; a bad factor anywhere in
    # the list refuses the study before any level steps
    steps = call_counter(galerkin, "step")
    with pytest.raises(ValueError, match="factor"):
        galerkin.run_coupled(_study_problem(), [1, 2], [2, factor])
    assert steps == {"step": 0}


@pytest.mark.parametrize("factors", [[1, 3], [16]])
def test_coupled_paths_refuse_a_factor_that_does_not_divide_the_steps(factors, call_counter):
    # [1, 3, 16] used to return paths of 8, 2 and 0 steps
    steps = call_counter(galerkin, "step")
    with pytest.raises(ValueError, match="does not divide the problem's 8 steps"):
        galerkin.run_coupled(_study_problem(), [1], factors)
    assert steps == {"step": 0}


@settings(max_examples=25)
@given(data=st.data(), n_steps=st.integers(1, 12),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_coupled_paths_are_consistent(data, n_steps, seeds):
    # each level steps at f dt on the sums of f consecutive increments of
    # its seed's path, bit for bit, and every level ends at T
    divisors = [f for f in range(1, n_steps + 1) if n_steps % f == 0]
    factors = data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    problem = _study_problem(n_steps)
    fine = galerkin.run_coupled(problem, seeds, [1])[0]
    for f, level in zip(factors, galerkin.run_coupled(problem, seeds, factors)):
        for traj, fine_traj in zip(level, fine):
            assert traj.seed == fine_traj.seed
            assert traj.dt == problem.cfg.dt * f and traj.n_steps == n_steps // f
            for n in range(n_steps // f):
                want = fine_traj.increments[n * f]
                for k in range(1, f):
                    want = want + fine_traj.increments[n * f + k]
                assert np.array_equal(traj.increments[n], want)
