from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerlaw_spde import galerkin
from powerlaw_spde.basis import FieldError, build_space, suggest_grid, symmetric_gradient, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams, eval_stress
from powerlaw_spde.galerkin import (
    SCHEMES,
    IntegratorError,
    Problem,
    SdeStepConfig,
    assemble_diffusion,
    convection_force,
    interpolation_exponent,
    run_trajectory,
    stabilizer_force,
    stress_force,
    trilinear_convection,
)
from powerlaw_spde.noise import NoiseModel, WienerPath
from test_basis import drawn_coefficients


def make_space(N=4):
    return build_space(2, N, suggest_grid(2, N))


def force_coeffs(space, forcing):
    """Problem.force_coeffs of a problem on this space with this body force."""
    return Problem(ConstitutiveParams(p=2.0), space, None, forcing, np.zeros(space.N),
                   SdeStepConfig(dt=0.01), 0).force_coeffs


def drift(params, space, c, forcing=None):
    v = synthesize(space, c)
    return (stress_force(space, eval_stress(params, symmetric_gradient(space, c)))
            + convection_force(space, v) + stabilizer_force(params, space, v)
            + force_coeffs(space, forcing))


def test_drift_vanishes_at_rest():
    space = make_space()
    params = ConstitutiveParams(p=1.6, alpha=0.5)
    mu = drift(params, space, np.zeros(4))
    assert np.all(mu == 0.0)


def test_single_mode_newtonian_drift():
    # for v = c w_k the stress force is -nu0 lambda_k c / 2 and the
    # self-convection of a single Fourier mode vanishes identically
    space = make_space(8)
    params = ConstitutiveParams(p=2.0, nu0=1.3)
    for k in [0, 3, 7]:
        c = np.zeros(8)
        c[k] = 0.7
        mu = drift(params, space, c)
        expect = np.zeros(8)
        expect[k] = -1.3 * space.eigenvalues[k] * 0.7 / 2.0
        assert np.max(np.abs(mu - expect)) < 1e-10


def test_force_coeffs_project_onto_modes():
    space = make_space()
    f = synthesize(space, np.array([0.0, 2.0, 0.0, 0.0]))
    mu = force_coeffs(space, f)
    assert np.allclose(mu, [0.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(drift(ConstitutiveParams(p=2.0), space, np.zeros(4), f),
                       mu, atol=1e-12)
    assert np.all(force_coeffs(space, None) == 0.0)


def test_stabilizer_force_dissipates():
    space = make_space()
    params = ConstitutiveParams(p=2.0, q=4.0, alpha=0.3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal(4)
        v = synthesize(space, c)
        force = stabilizer_force(params, space, v)
        lq = space.quad_weight * np.sum(np.linalg.norm(v, axis=-1) ** 4)
        assert abs(np.dot(force, c) + 0.3 * lq) < 1e-10 * (1.0 + lq)


def test_drift_energy_budget_identity():
    # mu . C = -int S:eps - alpha int |v|^q + int f.v for divergence-form
    # convection (which contributes nothing to the energy)
    space = make_space(8)
    params = ConstitutiveParams(p=1.6, alpha=0.2)
    rng = np.random.default_rng(1)
    f = synthesize(space, rng.standard_normal(8))
    c = rng.standard_normal(8)
    mu = drift(params, space, c, f)
    budget = (np.dot(stress_force(space, eval_stress(params, symmetric_gradient(space, c))), c)
              + np.dot(stabilizer_force(params, space, synthesize(space, c)), c)
              + np.dot(force_coeffs(space, f), c))
    assert abs(np.dot(mu, c) - budget) < 1e-8 * (1.0 + abs(budget))


def test_convection_cubic_cancellation():
    # b(v, u, v) = int u . grad(|v|^2/2) = 0 for solenoidal u, and the
    # fully diagonal form b(v, v, v) vanishes as well
    space = make_space(8)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        bound = 1e-8 * (1.0 + np.linalg.norm(u) * np.linalg.norm(v) ** 2)
        assert abs(trilinear_convection(space, v, u, v)) < bound
        assert abs(trilinear_convection(space, v, v, v)) < 1e-8 * (
            1.0 + np.linalg.norm(v) ** 3)


def test_convection_force_matches_trilinear_form():
    space = make_space(8)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8)
    force = convection_force(space, synthesize(space, c))
    for k in range(8):
        assert abs(force[k] - trilinear_convection(space, c, c, np.eye(8)[k])) < 1e-10
    # convection never injects energy: divergence form is orthogonal to v
    assert abs(np.dot(force, c)) < 1e-8 * (1.0 + np.linalg.norm(c) ** 3)


@given(drawn=drawn_coefficients())
def test_convection_is_skew_on_drawn_states(drawn):
    # int (v (x) v) : grad v = 0 for solenoidal v, so convection does no work
    space, c = drawn
    work = convection_force(space, synthesize(space, c)) @ c
    assert abs(work) <= 1e-8 * (1.0 + np.linalg.norm(c) ** 3)


def test_diffusion_matrix_additive_and_linear():
    space = make_space()
    c = np.array([0.5, 0.0, 0.0, -1.0])
    v = synthesize(space, c)
    model = NoiseModel(family="linear", K=6)
    sigma = assemble_diffusion(model, space, v)
    # linear family: Sigma_kl = a_l c_k exactly
    expect = np.outer(c, model.per_mode_scale)
    assert np.max(np.abs(sigma - expect)) < 1e-10
    model_add = NoiseModel(family="additive", K=6)
    sigma_add = assemble_diffusion(model_add, space, v)
    # constant fields have zero projection onto mean-zero modes
    assert np.max(np.abs(sigma_add)) < 1e-12


def test_step_small_dt_limit_noise_free(advance):
    space = make_space()
    params = ConstitutiveParams(p=1.6)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    for scheme in ("euler_maruyama", "semi_implicit"):
        deltas = []
        for dt in (1e-4, 5e-5):
            cfg = SdeStepConfig(dt=dt, scheme=scheme)
            new = advance(params, space, c0, cfg)
            deltas.append(np.linalg.norm(new - c0))
        assert deltas[0] < 1e-3
        assert deltas[1] < 0.6 * deltas[0]  # shrinks linearly with dt


def test_explicit_single_mode_newtonian_update(advance):
    space = make_space()
    params = ConstitutiveParams(p=2.0, nu0=1.0)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    new = advance(params, space, c0, SdeStepConfig(dt=0.01))
    lam = space.eigenvalues[0]
    assert abs(new[0] - (1.0 - 0.01 * lam / 2.0)) < 1e-12
    assert np.max(np.abs(new[1:])) < 1e-12


def test_implicit_single_mode_newtonian_update(advance):
    space = make_space()
    params = ConstitutiveParams(p=2.0, nu0=1.0)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    new = advance(params, space, c0, SdeStepConfig(dt=0.01, scheme="semi_implicit"))
    lam = space.eigenvalues[0]
    assert abs(new[0] - 1.0 / (1.0 + 0.01 * lam / 2.0)) < 1e-9


def test_schemes_agree_to_first_order(advance):
    space = make_space(8)
    params = ConstitutiveParams(p=1.6, alpha=0.1)
    rng = np.random.default_rng(5)
    c0 = 0.5 * rng.standard_normal(8)
    diffs = []
    for dt in (1e-2, 5e-3):
        out = {}
        for scheme in ("euler_maruyama", "semi_implicit"):
            cfg = SdeStepConfig(dt=dt, scheme=scheme)
            out[scheme] = advance(params, space, c0, cfg)
        diffs.append(np.linalg.norm(out["euler_maruyama"] - out["semi_implicit"]))
    # per-step difference is O(dt^2): quarters under halving
    assert diffs[1] < 0.3 * diffs[0]


def test_newton_failure_reports_residual(advance, monkeypatch):
    space = make_space()
    params = ConstitutiveParams(p=3.0)
    cfg = SdeStepConfig(dt=50.0, scheme="semi_implicit")
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 1)
    with pytest.raises(IntegratorError) as err:
        advance(params, space, 10.0 * np.ones(4), cfg, step_index=3)
    assert err.value.residual is not None and err.value.residual > 0.0
    assert err.value.step == 3
    assert str(err.value).startswith("step 3: ")


@pytest.mark.parametrize("d, N, p, alpha, dt", [(3, 64, 2.5, 0.1, 1.0), (2, 32, 4.0, 1.0, 10.0)])
def test_newton_completes_steps_converged_to_round_off(advance, d, N, p, alpha, dt):
    # an absolute residual tolerance of 1e-10 sat below the round-off of
    # these gradients: Newton stalled there and the line search failed
    space = build_space(d, N, suggest_grid(d, N))
    params = ConstitutiveParams(p=p, alpha=alpha)
    c0 = 3.0 * np.random.default_rng(1).standard_normal(N)
    cfg = SdeStepConfig(dt=dt, scheme="semi_implicit")
    new = advance(params, space, c0, cfg)
    rhs = c0 + dt * convection_force(space, synthesize(space, c0))
    fields = galerkin._implicit_fields(params, space, new)
    grad = galerkin._implicit_gradient(params, space, new, rhs, dt, fields)
    assert np.linalg.norm(grad) <= galerkin.NEWTON_TOL * np.linalg.norm(rhs)
    assert np.linalg.norm(new) <= np.linalg.norm(rhs)  # a proximal step


def test_run_trajectory_evaluates_fields_once_per_step(call_counter):
    # the left-point v, grad v and Sigma feed both the diagnostics and the
    # step, and eps is the symmetric part of grad v
    space = make_space()
    params = ConstitutiveParams(p=1.8, alpha=0.1)
    model = NoiseModel(family="smooth_norm", K=4)
    forcing = synthesize(space, np.eye(4)[1])
    counts = call_counter(galerkin, "synthesize", "velocity_gradient", "symmetric_gradient",
                          "apply_phi", "analyze_scalar", "assemble_diffusion", "stress_force",
                          "eval_stress")
    run_trajectory(Problem(params, space, model, forcing, np.array([1.0, 0.5, 0.0, 0.2]),
                           SdeStepConfig(dt=0.01), 7), seed=2)
    # the stress is evaluated once per Euler-Maruyama step, for stress_diss
    # and the drift alike; the smooth_norm Sigma is projected from its
    # profile, with no field of Phi(v) formed
    assert counts == {**dict.fromkeys(counts, 7), "symmetric_gradient": 0, "apply_phi": 0}


def test_step_with_noise_reproducible(advance):
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    noise = (NoiseModel(family="linear", K=4), WienerPath.generate([9], 0.01, 4, 3)[0])
    cfg = SdeStepConfig(dt=0.01)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    a = advance(params, space, c0, cfg, noise=noise, step_index=0)
    b = advance(params, space, c0, cfg, noise=noise, step_index=0)
    assert np.array_equal(a, b)
    c = advance(params, space, c0, cfg, noise=noise, step_index=1)
    assert not np.array_equal(a, c)


def test_step_config_validation():
    with pytest.raises(ValueError):
        SdeStepConfig(dt=0.0)
    with pytest.raises(ValueError):
        SdeStepConfig(dt=0.01, scheme="midpoint")


@pytest.mark.parametrize("v0", [[np.nan, 0.0, 0.0, 0.0], [1.0, 0.0]],
                         ids=["non_finite", "wrong_shape"])
def test_run_trajectory_rejects_bad_initial_coeffs(v0):
    # non-finite or wrongly shaped initial data fails before the first step
    with pytest.raises(ValueError, match="v0 must be 4 finite numbers"):
        Problem(ConstitutiveParams(p=2.0), make_space(), None, None,
                np.array(v0), SdeStepConfig(dt=0.01), 3)


@pytest.mark.parametrize("override, message", [
    ({"forcing": np.zeros((9, 2))}, r"forcing must be sampled on the grid, shape \(16, 2\)"),
    ({"forcing": np.zeros((16, 3))}, r"forcing must be sampled on the grid, shape \(16, 2\)"),
], ids=["forcing_points", "forcing_components"])
def test_problem_refuses_parts_that_disagree_with_the_space(override, message):
    space = make_space()  # d = 2 on 4^2 points
    parts = dict(params=ConstitutiveParams(p=2.0), space=space,
                 model=NoiseModel(family="linear"), forcing=np.zeros((16, 2)),
                 v0=np.zeros(4), cfg=SdeStepConfig(dt=0.01), n_steps=3)
    Problem(**parts)
    with pytest.raises(ValueError, match=message):
        Problem(**{**parts, **override})


@pytest.mark.parametrize("n_steps", [-1, 2.5, True, "3"])
def test_problem_refuses_an_n_steps_that_is_not_a_count(n_steps):
    # -1 used to end in IndexError and 2.5 in TypeError inside run_trajectory
    with pytest.raises(ValueError, match="n_steps must be a nonnegative integer"):
        Problem(ConstitutiveParams(p=2.0), make_space(), None, None, np.zeros(4),
                SdeStepConfig(dt=0.01), n_steps)


def test_problem_runs_any_integer_count_of_steps():
    for n_steps in (0, np.int64(2)):
        problem = Problem(ConstitutiveParams(p=2.0), make_space(), NoiseModel(family="linear"),
                          None, np.ones(4), SdeStepConfig(dt=0.01), n_steps)
        traj = run_trajectory(problem, seed=1)
        assert traj.coeffs.shape == (n_steps + 1, 4)
        # every factor divides 0 steps; each level runs none
        if n_steps == 0:
            for (level,) in galerkin.run_coupled(problem, [1], [1, 2]):
                assert level.coeffs.shape == (1, 4) and level.increments.shape == (0, 16)


def test_interpolation_exponent():
    assert abs(interpolation_exponent(2.0, 2) - 4.0) < 1e-15
    assert abs(interpolation_exponent(1.6, 3) - 8.0 / 3.0) < 1e-14


def test_run_trajectory_shapes_and_seed_requirement():
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    model = NoiseModel(family="linear", K=4)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    problem = Problem(params, space, model, None, v0, cfg, 10)
    traj = run_trajectory(problem, seed=1)
    assert traj.coeffs.shape == (11, 4)
    assert traj.energy().shape == (11,)
    assert traj.increments.shape == (10, 4)
    assert abs(traj.times[-1] - 0.1) < 1e-12
    with pytest.raises(ValueError):
        run_trajectory(problem)


def test_run_trajectory_deterministic_in_seed():
    space = make_space()
    params = ConstitutiveParams(p=1.8)
    model = NoiseModel(family="smooth_norm", K=8)
    cfg = SdeStepConfig(dt=0.005)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    problem = Problem(params, space, model, None, v0, cfg, 20)
    a = run_trajectory(problem, seed=4)
    b = run_trajectory(problem, seed=4)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = run_trajectory(problem, seed=5)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_noise_free_newtonian_energy_decay():
    space = make_space()
    params = ConstitutiveParams(p=2.0, nu0=1.0)
    cfg = SdeStepConfig(dt=1e-3)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = run_trajectory(Problem(params, space, None, None, v0, cfg, 100))
    energy = traj.energy()
    assert np.all(np.diff(energy) < 0.0)
    # |C(t)|^2 tracks exp(-nu0 lambda t) closely at this resolution
    assert abs(energy[-1] - np.exp(-0.1)) < 1e-3


_SERIES = ("coeffs", "stress_diss", "stab_int", "force_work", "grad_lp", "vel_rq", "mart", "qv")


@settings(max_examples=25)
@given(family=st.sampled_from(["linear", "smooth_norm"]), scheme=st.sampled_from(SCHEMES),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5))
def test_lockstep_rows_match_single_runs(family, scheme, seeds):
    space = make_space(8)
    params = ConstitutiveParams(p=1.6, alpha=0.1)
    model = NoiseModel(family=family, K=6)
    forcing = synthesize(space, np.eye(8)[1])
    v0 = 0.8 * np.cos(np.arange(8.0))
    cfg = SdeStepConfig(dt=0.01, scheme=scheme)
    problem = Problem(params, space, model, forcing, v0, cfg, 4)
    rows = run_trajectory(problem, seed=seeds)
    assert [row.seed for row in rows] == seeds
    for seed, row in zip(seeds, rows):
        alone = run_trajectory(problem, seed=seed)
        for name in _SERIES:
            got, want = getattr(row, name), getattr(alone, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        assert np.array_equal(row.increments, alone.increments)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_reproduces_each_recorded_step(scheme):
    # step evaluates the left point itself: from a recorded row block and
    # the step's increments it gives the next rows and the seven series
    # bit for bit, the series in Trajectory field order
    space = make_space(8)
    forcing = synthesize(space, np.eye(8)[1])
    problem = Problem(ConstitutiveParams(p=1.6, alpha=0.1), space,
                      NoiseModel(family="smooth_norm", K=6), forcing,
                      0.8 * np.cos(np.arange(8.0)), SdeStepConfig(dt=0.01, scheme=scheme), 4)
    rows = run_trajectory(problem, seed=[3, 4, 5])
    coeffs, increments = (np.stack([getattr(row, name) for row in rows])
                          for name in ("coeffs", "increments"))
    series = np.stack([[getattr(row, name) for row in rows] for name in _SERIES[1:]])
    predictor = None
    for n in range(problem.n_steps):
        new, diagnostics, errors, predictor = galerkin.step(
            problem, coeffs[:, n], n, increments[:, n], predictor)
        assert errors == {}
        assert np.array_equal(new, coeffs[:, n + 1])
        assert np.array_equal(diagnostics, series[:, :, n])


def _predictor_problem(scheme):
    space = make_space(8)
    return Problem(ConstitutiveParams(p=1.6, alpha=0.1), space, None, None,
                   0.8 * np.cos(np.arange(8.0)), SdeStepConfig(dt=0.01, scheme=scheme), 2)


def test_euler_maruyama_step_refuses_a_predictor():
    # the explicit scheme has no Newton start, so a predictor would be a
    # silent no-op
    problem = _predictor_problem("euler_maruyama")
    rows = problem.v0[None]
    assert galerkin.step(problem, rows, 0, None)[3] is None
    with pytest.raises(ValueError, match="predictor"):
        galerkin.step(problem, rows, 0, None, np.zeros_like(rows))


@pytest.mark.parametrize("shape", [(8,), (2, 8), (1, 7), (1, 8, 1)])
def test_semi_implicit_step_refuses_a_predictor_of_another_shape(shape):
    problem = _predictor_problem("semi_implicit")
    with pytest.raises(ValueError, match="predictor"):
        galerkin.step(problem, problem.v0[None], 0, None, np.zeros(shape))


@settings(max_examples=20)
@given(d=st.sampled_from([2, 3]), p=st.floats(1.2, 3.0), alpha=st.sampled_from([0.0, 0.1]),
       dt=st.floats(1e-3, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_predicted_newton_start_moves_rows_only_within_the_tolerance(d, p, alpha, dt, seed):
    # the Newton start changes the iterates, not the minimizer: threading
    # the previous implicit increment and starting every step from rhs agree
    # to within the Newton tolerance on every recorded row
    N = 8 if d == 2 else 12
    space = build_space(d, N, suggest_grid(d, N))
    v0 = np.random.default_rng(seed).standard_normal(N)
    problem = Problem(ConstitutiveParams(p=p, alpha=alpha), space,
                      NoiseModel(family="linear", K=4), None, v0,
                      SdeStepConfig(dt=dt, scheme="semi_implicit"), 4)
    threaded = run_trajectory(problem, seed=seed)
    rows = threaded.coeffs[:1].copy()
    for n in range(problem.n_steps):
        new, _, errors, _ = galerkin.step(problem, rows[-1:], n, threaded.increments[n][None])
        assert errors == {}
        rows = np.concatenate([rows, new])
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    assert np.all(np.linalg.norm(threaded.coeffs - rows, axis=1) <= 1e-9 * scale)


def test_failing_row_is_masked():
    # seed 0 diverges at step 12 and rides on as a zero row; the other rows
    # finish as they do alone
    space = make_space(8)
    params = ConstitutiveParams(p=3.0)
    model = NoiseModel(family="linear", K=16)
    v0, cfg = 2.0 * np.ones(8), SdeStepConfig(dt=1.0)
    problem = Problem(params, space, model, None, v0, cfg, 20)
    rows = run_trajectory(problem, seed=range(4))
    assert isinstance(rows[0], IntegratorError)
    assert (rows[0].step, str(rows[0])) == (12, "step 12: non-finite diagnostics")
    with pytest.raises(IntegratorError, match="step 12: non-finite diagnostics"):
        run_trajectory(problem, seed=0)
    for seed in (1, 2, 3):
        alone = run_trajectory(problem, seed=seed)
        assert np.array_equal(rows[seed].coeffs, alone.coeffs)


@pytest.mark.parametrize("seed", [2.9, -0.5, True, "12", [1, 2.5]])
@pytest.mark.parametrize("noise", [True, False])
def test_run_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, noise):
    # seed=2.9 returned seed 2's run labelled 2.9, and seed="12" iterated the
    # str into two trajectories with seeds '1' and '2'; a run without noise
    # records its seed too
    problem = Problem(ConstitutiveParams(p=2.0), make_space(),
                      NoiseModel(family="linear", K=4) if noise else None, None,
                      np.array([1.0, 0.0, 0.0, 0.0]), SdeStepConfig(dt=0.01), 3)
    with pytest.raises(FieldError, match="seed must be a nonnegative integer") as info:
        run_trajectory(problem, seed=seed)
    assert info.value.field == "seed"


def test_run_records_integer_seeds_and_none_only_without_noise():
    space, v0 = make_space(), np.array([1.0, 0.0, 0.0, 0.0])
    problem = Problem(ConstitutiveParams(p=2.0), space, NoiseModel(family="linear", K=4), None,
                      v0, SdeStepConfig(dt=0.01), 3)
    base = run_trajectory(problem, seed=5)
    for seed in (np.int64(5), [np.int64(5)], range(5, 6)):
        run = run_trajectory(problem, seed=seed)
        run = run[0] if isinstance(run, list) else run
        assert type(run.seed) is int and run.seed == 5
        assert np.array_equal(run.coeffs, base.coeffs)
    with pytest.raises(ValueError, match="need a seed"):
        run_trajectory(problem)
    quiet = Problem(ConstitutiveParams(p=2.0), space, None, None, v0, SdeStepConfig(dt=0.01), 3)
    assert run_trajectory(quiet).seed is None
    assert [t.seed for t in run_trajectory(quiet, seed=[None, 2])] == [None, 2]


def _coupled_problem(model=NoiseModel(family="linear", K=4), n_steps=6):
    return Problem(ConstitutiveParams(p=1.8, alpha=0.1), make_space(), model, None,
                   np.array([1.0, 0.5, 0.0, 0.2]), SdeStepConfig(dt=0.01), n_steps)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_coupled_factor_one_is_run_trajectory(scheme):
    problem = replace(_coupled_problem(), cfg=SdeStepConfig(dt=0.01, scheme=scheme))
    (level,) = galerkin.run_coupled(problem, [4, 7], [1])
    assert all(traj.problem is problem for traj in level)
    for runs in ([run_trajectory(problem, seed=s) for s in (4, 7)],
                 run_trajectory(problem, seed=[4, 7])):
        for traj, run in zip(level, runs):
            assert traj.seed == run.seed
            for name in _SERIES + ("times", "increments"):
                assert np.array_equal(getattr(traj, name), getattr(run, name)), name


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 3]))
def test_force_work_is_the_rows_against_the_projected_force(seed, d):
    # step reads the body force only through Problem.force_coeffs:
    # C . (w sum f . w_k) = w sum f . v for any sampled f, as analyze is linear
    space = build_space(d, 8, suggest_grid(d, 8))
    rng = np.random.default_rng(seed)
    forcing = rng.standard_normal(space.points.shape)
    rows = rng.standard_normal((3, 8))
    problem = Problem(ConstitutiveParams(p=2.0), space, None, forcing, rows[0],
                      SdeStepConfig(dt=0.01), 1)
    force_work = galerkin.step(problem, rows, 0, None)[1][2]
    terms = forcing[:, None] * synthesize(space, rows)  # (M^d, 3, d)
    want = space.quad_weight * np.sum(terms, axis=(0, 2))
    scale = space.quad_weight * np.sum(np.abs(terms), axis=(0, 2))
    assert np.all(np.abs(force_work - want) <= 1e-13 * scale)


def test_run_coupled_runs_a_noise_free_problem_with_seed_none():
    problem = _coupled_problem(model=None)
    levels = galerkin.run_coupled(problem, [None], [1, 2, 3])
    assert [(traj.seed, traj.n_steps, traj.increments) for (traj,) in levels] == [
        (None, 6, None), (None, 3, None), (None, 2, None)]
    assert np.array_equal(levels[0][0].coeffs, run_trajectory(problem).coeffs)


@pytest.mark.parametrize("seeds, factors, error, message", [
    ([1], [], ValueError, "factors: need at least one"),
    ([1, None], [1], ValueError, "need a seed"),
    ([1, 2.5], [1], FieldError, "seed must be a nonnegative integer"),
    ([-1], [2], FieldError, "seed must be a nonnegative integer"),
    ([], [1], ValueError, "seeds must be a nonempty sequence"),
    (3, [1], ValueError, "seeds must be a nonempty sequence"),
], ids=["no_factor", "seed_none_with_noise", "float_seed", "negative_seed", "no_seed",
        "seed_not_a_sequence"])
def test_run_coupled_refuses_before_any_draw(seeds, factors, error, message, call_counter):
    draws = call_counter(WienerPath, "generate")
    with pytest.raises(error, match=message):
        galerkin.run_coupled(_coupled_problem(), seeds, factors)
    assert draws == {"generate": 0}
