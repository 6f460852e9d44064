import numpy as np
import pytest

from powerlaw_spde import galerkin
from powerlaw_spde.basis import build_space, suggest_grid, symmetric_gradient, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import (
    IntegratorError,
    SdeStepConfig,
    assemble_diffusion,
    assemble_drift,
    convection_force,
    forcing_term,
    interpolation_exponent,
    run_trajectory,
    stabilizer_force,
    stress_force,
    trilinear_convection,
)
from powerlaw_spde.noise import NoiseModel, WienerPath


def make_space(N=4):
    return build_space(2, N, suggest_grid(2, N))


def drift(params, space, c, forcing=None):
    return assemble_drift(params, space, forcing, synthesize(space, c),
                          symmetric_gradient(space, c))


def test_drift_vanishes_at_rest():
    space = make_space()
    params = ConstitutiveParams(p=1.6, alpha=0.5, d=2)
    mu = drift(params, space, np.zeros(4))
    assert np.all(mu == 0.0)


def test_single_mode_newtonian_drift():
    # for v = c w_k the stress force is -nu0 lambda_k c / 2 and the
    # self-convection of a single Fourier mode vanishes identically
    space = make_space(8)
    params = ConstitutiveParams(p=2.0, nu0=1.3, d=2)
    for k in [0, 3, 7]:
        c = np.zeros(8)
        c[k] = 0.7
        mu = drift(params, space, c)
        expect = np.zeros(8)
        expect[k] = -1.3 * space.eigenvalues[k] * 0.7 / 2.0
        assert np.max(np.abs(mu - expect)) < 1e-10


def test_forcing_term_projects_onto_modes():
    space = make_space()
    f = synthesize(space, np.array([0.0, 2.0, 0.0, 0.0]))
    mu = forcing_term(space, f)
    assert np.allclose(mu, [0.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(drift(ConstitutiveParams(p=2.0, d=2), space, np.zeros(4), f),
                       mu, atol=1e-12)
    assert np.all(forcing_term(space, None) == 0.0)


def test_stabilizer_force_dissipates():
    space = make_space()
    params = ConstitutiveParams(p=2.0, q=4.0, alpha=0.3, d=2)
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
    params = ConstitutiveParams(p=1.6, alpha=0.2, d=2)
    rng = np.random.default_rng(1)
    f = synthesize(space, rng.standard_normal(8))
    c = rng.standard_normal(8)
    mu = drift(params, space, c, f)
    budget = (np.dot(stress_force(params, space, symmetric_gradient(space, c)), c)
              + np.dot(stabilizer_force(params, space, synthesize(space, c)), c)
              + np.dot(forcing_term(space, f), c))
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


def test_diffusion_matrix_additive_and_linear():
    space = make_space()
    c = np.array([0.5, 0.0, 0.0, -1.0])
    v = synthesize(space, c)
    model = NoiseModel(family="linear", K=6, d=2)
    sigma = assemble_diffusion(model, space, v)
    # linear family: Sigma_kl = a_l c_k exactly
    expect = np.outer(c, model.per_mode_scale)
    assert np.max(np.abs(sigma - expect)) < 1e-10
    model_add = NoiseModel(family="additive", K=6, d=2)
    sigma_add = assemble_diffusion(model_add, space, v)
    # constant fields have zero projection onto mean-zero modes
    assert np.max(np.abs(sigma_add)) < 1e-12


def test_step_small_dt_limit_noise_free(advance):
    space = make_space()
    params = ConstitutiveParams(p=1.6, d=2)
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
    params = ConstitutiveParams(p=2.0, nu0=1.0, d=2)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    new = advance(params, space, c0, SdeStepConfig(dt=0.01))
    lam = space.eigenvalues[0]
    assert abs(new[0] - (1.0 - 0.01 * lam / 2.0)) < 1e-12
    assert np.max(np.abs(new[1:])) < 1e-12


def test_implicit_single_mode_newtonian_update(advance):
    space = make_space()
    params = ConstitutiveParams(p=2.0, nu0=1.0, d=2)
    c0 = np.array([1.0, 0.0, 0.0, 0.0])
    new = advance(params, space, c0, SdeStepConfig(dt=0.01, scheme="semi_implicit"))
    lam = space.eigenvalues[0]
    assert abs(new[0] - 1.0 / (1.0 + 0.01 * lam / 2.0)) < 1e-9


def test_schemes_agree_to_first_order(advance):
    space = make_space(8)
    params = ConstitutiveParams(p=1.6, alpha=0.1, d=2)
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


def test_newton_failure_reports_residual(advance):
    space = make_space()
    params = ConstitutiveParams(p=3.0, d=2)
    cfg = SdeStepConfig(dt=50.0, scheme="semi_implicit", newton_max_iter=1)
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
    params = ConstitutiveParams(p=p, alpha=alpha, d=d)
    c0 = 3.0 * np.random.default_rng(1).standard_normal(N)
    cfg = SdeStepConfig(dt=dt, scheme="semi_implicit")
    new = advance(params, space, c0, cfg)
    rhs = c0 + dt * convection_force(space, synthesize(space, c0))
    fields = galerkin._implicit_fields(params, space, new)
    grad = galerkin._implicit_gradient(params, space, new, rhs, dt, fields)
    assert np.linalg.norm(grad) <= cfg.newton_tol * np.linalg.norm(rhs)
    assert np.linalg.norm(new) <= np.linalg.norm(rhs)  # a proximal step


def test_run_trajectory_evaluates_fields_once_per_step(call_counter):
    # the left-point v, eps and Sigma feed both the diagnostics and the step
    space = make_space()
    params = ConstitutiveParams(p=1.8, alpha=0.1, d=2)
    model = NoiseModel(family="smooth_norm", K=4, d=2)
    forcing = synthesize(space, np.eye(4)[1])
    counts = call_counter(galerkin, "synthesize", "symmetric_gradient",
                          "apply_phi", "assemble_diffusion", "stress_force")
    run_trajectory(params, space, model, forcing, np.array([1.0, 0.5, 0.0, 0.2]),
                   SdeStepConfig(dt=0.01), 7, seed=2)
    assert counts == dict.fromkeys(counts, 7)


def test_step_with_noise_reproducible(advance):
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    noise = (NoiseModel(family="linear", K=4, d=2), WienerPath.generate(9, 0.01, 4, 3))
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
    with pytest.raises(ValueError):
        SdeStepConfig(dt=0.01, newton_tol=0.0)


@pytest.mark.parametrize("v0", [[np.nan, 0.0, 0.0, 0.0], [1.0, 0.0]],
                         ids=["non_finite", "wrong_shape"])
def test_run_trajectory_rejects_bad_initial_coeffs(v0):
    # non-finite or wrongly shaped initial data fails before the first step
    with pytest.raises(ValueError):
        run_trajectory(ConstitutiveParams(p=2.0, d=2), make_space(), None, None,
                       np.array(v0), SdeStepConfig(dt=0.01), 3)


def test_interpolation_exponent():
    assert abs(interpolation_exponent(ConstitutiveParams(p=2.0, d=2)) - 4.0) < 1e-15
    assert abs(interpolation_exponent(ConstitutiveParams(p=1.6, d=3)) - 8.0 / 3.0) < 1e-14


def test_run_trajectory_shapes_and_seed_requirement():
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    model = NoiseModel(family="linear", K=4, d=2)
    cfg = SdeStepConfig(dt=0.01)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = run_trajectory(params, space, model, None,
                          v0, cfg, 10, seed=1)
    assert traj.coeffs.shape == (11, 4)
    assert traj.energy().shape == (11,)
    assert traj.increments.shape == (10, 4)
    assert abs(traj.times[-1] - 0.1) < 1e-12
    with pytest.raises(ValueError):
        run_trajectory(params, space, model, None, v0, cfg, 10)


def test_run_trajectory_deterministic_in_seed():
    space = make_space()
    params = ConstitutiveParams(p=1.8, d=2)
    model = NoiseModel(family="smooth_norm", K=8, d=2)
    cfg = SdeStepConfig(dt=0.005)
    v0 = np.array([1.0, 0.5, 0.0, 0.0])
    a = run_trajectory(params, space, model, None, v0, cfg, 20, seed=4)
    b = run_trajectory(params, space, model, None, v0, cfg, 20, seed=4)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = run_trajectory(params, space, model, None, v0, cfg, 20, seed=5)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_noise_free_newtonian_energy_decay():
    space = make_space()
    params = ConstitutiveParams(p=2.0, nu0=1.0, d=2)
    cfg = SdeStepConfig(dt=1e-3)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = run_trajectory(params, space, None, None, v0, cfg, 100)
    energy = traj.energy()
    assert np.all(np.diff(energy) < 0.0)
    # |C(t)|^2 tracks exp(-nu0 lambda t) closely at this resolution
    assert abs(energy[-1] - np.exp(-0.1)) < 1e-3
