import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from powerlaw_spde import galerkin, pressure
from powerlaw_spde.basis import analyze_gradient, build_space, suggest_grid, symmetric_gradient, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams, eval_stabilizer, eval_stress
from powerlaw_spde.galerkin import Problem, SdeStepConfig, run_trajectory
from powerlaw_spde.noise import NoiseModel, apply_phi, hilbert_schmidt_norm_sq
from test_galerkin import drift

HELPERS = ("inverse_laplacian", "laplacian", "gradient_scalar",
           "divergence_vector", "div_div_tensor", "_field_gradient")


def make_space(N=8, M=None):
    return build_space(2, N, M or suggest_grid(2, N))


def operator_spaces(M=10):
    """d = 2 and 3, each on its smallest grid and on the even grid M, whose
    Nyquist bins the Fourier symbols must handle."""
    return [build_space(d, 8, m) for d in (2, 3) for m in (suggest_grid(d, 8), M)]


def test_inverse_laplacian_analytic():
    for space in operator_spaces():
        x1 = space.points[:, 0]
        out = pressure.inverse_laplacian(space, np.cos(x1))
        assert np.max(np.abs(out + np.cos(x1))) < 1e-12
        # laplacian is its left inverse on mean-zero fields
        back = pressure.laplacian(space, out)
        assert np.max(np.abs(back - np.cos(x1))) < 1e-12


def test_gradient_and_divergence_are_adjoint():
    rng = np.random.default_rng(0)
    for space in operator_spaces():
        n_pts = space.M ** space.d
        scalar = rng.standard_normal(n_pts)
        vec = rng.standard_normal((n_pts, space.d))
        lhs = np.sum(pressure.gradient_scalar(space, scalar) * vec)
        rhs = -np.sum(scalar * pressure.divergence_vector(space, vec))
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def per_component_oracle(space):
    """The operators with one complex fftn per scalar component: laplacian,
    inverse_laplacian and gradient of a scalar (M^d,), divergence of a
    vector (M^d, d) and div div of a tensor (M^d, d, d)."""
    d = space.d
    ks = np.meshgrid(*([np.fft.fftfreq(space.M, 1.0 / space.M)] * d), indexing="ij")
    k_sq = sum(k ** 2 for k in ks)

    def fft(f):
        return np.fft.fftn(f.reshape(space.grid_shape))

    def ifft(hat):
        return np.real(np.fft.ifftn(hat)).ravel()

    def lap(f):
        return ifft(-k_sq * fft(f))

    def inv_lap(f):
        return ifft(np.where(k_sq == 0, 0.0, fft(f) / np.where(k_sq == 0, 1.0, -k_sq)))

    def grad(f):
        return np.stack([ifft(1j * k * fft(f)) for k in ks], axis=-1)

    def div(v):
        return ifft(sum(1j * ks[j] * fft(v[:, j]) for j in range(d)))

    def div_div(h):
        return ifft(sum(-ks[i] * ks[j] * fft(h[:, i, j]) for i in range(d) for j in range(d)))

    return lap, inv_lap, grad, div, div_div


def test_operators_match_per_component_transforms():
    # the reference applies each symbol with one transform per component
    rng = np.random.default_rng(8)
    for space in operator_spaces():
        d, n_pts = space.d, space.M ** space.d
        lap, inv_lap, grad, div, div_div = per_component_oracle(space)
        s = rng.standard_normal(n_pts)
        v = rng.standard_normal((n_pts, d))
        h = rng.standard_normal((n_pts, d, d))
        cases = [
            (pressure.laplacian(space, s), lap(s)),
            (pressure.inverse_laplacian(space, s), inv_lap(s)),
            (pressure.inverse_laplacian(space, v),
             np.stack([inv_lap(v[:, i]) for i in range(d)], axis=-1)),
            (pressure.gradient_scalar(space, s), grad(s)),
            (pressure._field_gradient(space, v),
             np.stack([grad(v[:, i]) for i in range(d)], axis=1)),
            (pressure.divergence_vector(space, v), div(v)),
            (pressure.div_div_tensor(space, h), div_div(h)),
        ]
        for got, expected in cases:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) < 1e-12


@settings(max_examples=60)
@given(d=st.sampled_from([2, 3]), M=st.integers(3, 16),
       batch=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2 ** 16))
def test_operators_match_per_component_transforms_on_drawn_grids(d, M, batch, seed):
    # odd and even grids (the per-axis DFT matrices and both Nyquist rules)
    # and 0-2 batch axes, each batch slice against the oracle
    assume(M ** d <= 4096)
    space = build_space(d, 1, M)
    lap, inv_lap, grad, div, div_div = per_component_oracle(space)
    rng = np.random.default_rng(seed)
    for operator, reference, comp in [
        (pressure.laplacian, lap, ()),
        (pressure.inverse_laplacian, inv_lap, ()),
        (pressure.gradient_scalar, grad, ()),
        (pressure.divergence_vector, div, (d,)),
        (pressure.div_div_tensor, div_div, (d, d)),
    ]:
        values = rng.standard_normal((M ** d, *batch, *comp))
        got = operator(space, values)
        expected = np.stack([reference(values[(slice(None), *index)])
                             for index in np.ndindex(*batch)], axis=1)
        expected = expected.reshape(got.shape[:1] + tuple(batch) + got.shape[1 + len(batch):])
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=60)
@given(d=st.sampled_from([2, 3]), M=st.integers(3, 16),
       batch=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2 ** 16))
def test_fused_operators_match_their_compositions_on_drawn_grids(d, M, batch, seed):
    # each fused symbol (one transform pair) equals the composition of the
    # separate operators (two pairs) on odd and even grids, the latter with
    # both Nyquist rules, and with 0-2 batch axes
    assume(M ** d <= 4096)
    space = build_space(d, 1, M)
    rng = np.random.default_rng(seed)
    inv_lap = pressure.inverse_laplacian
    for of, composed, comp in [
        ("gradient", lambda f: pressure.gradient_scalar(space, inv_lap(space, f)), (d,)),
        ("divergence", lambda f: inv_lap(space, pressure.divergence_vector(space, f)), (d,)),
        ("div_div", lambda f: inv_lap(space, pressure.div_div_tensor(space, f)), (d, d)),
    ]:
        values = rng.standard_normal((M ** d, *batch, *comp))
        got, expected = inv_lap(space, values, of=of), composed(values)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    h = rng.standard_normal((M ** d, *batch, d, d))
    expected = -inv_lap(space, pressure.div_div_tensor(space, h))
    assert np.max(np.abs(pressure.solve_pi_H(space, h) - expected)) <= (
        1e-12 * np.max(np.abs(expected)))


def test_pi_H_constant_tensor_gives_zero():
    space = make_space()
    H = np.ones((space.M ** 2, 2, 2))
    assert np.max(np.abs(pressure.solve_pi_H(space, H))) < 1e-12


def test_pi_H_analytic_example():
    # H = cos(x1) e1 (x) e1: div div H = -cos(x1), pi_H = -cos(x1)
    space = make_space()
    x1 = space.points[:, 0]
    H = np.zeros((space.M ** 2, 2, 2))
    H[:, 0, 0] = np.cos(x1)
    pi = pressure.solve_pi_H(space, H)
    assert np.max(np.abs(pi - (-np.cos(x1)))) < 1e-10


def test_pi_H_ignores_skew_part():
    rng = np.random.default_rng(1)
    for space in operator_spaces():
        a = rng.standard_normal((space.M ** space.d, space.d, space.d))
        skew = 0.5 * (a - np.swapaxes(a, -1, -2))
        # div div of a skew tensor vanishes identically
        assert np.max(np.abs(pressure.div_div_tensor(space, skew))) < 1e-8
        assert np.max(np.abs(pressure.solve_pi_H(space, skew))) < 1e-8


def test_pi_H_linearity_and_mean_zero():
    space = make_space()
    rng = np.random.default_rng(2)
    h1 = rng.standard_normal((space.M ** 2, 2, 2))
    h2 = rng.standard_normal((space.M ** 2, 2, 2))
    combo = pressure.solve_pi_H(space, h1 + 3.0 * h2)
    parts = pressure.solve_pi_H(space, h1) + 3.0 * pressure.solve_pi_H(space, h2)
    assert np.max(np.abs(combo - parts)) < 1e-10
    assert abs(np.mean(combo)) < 1e-12


def test_pi_H_weak_identity_against_scalar_modes():
    # int pi_H lap(phi) = -int H : grad^2(phi) for resolved scalar modes phi;
    # the grids keep the test wavenumbers below Nyquist
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for M in (9, 10):
            space = build_space(d, 8, M)
            H = rng.standard_normal((M ** d, d, d))
            pi = pressure.solve_pi_H(space, H)
            w = space.quad_weight
            for xi in ([1, 0, 1], [0, 2, 0], [1, -1, 0], [2, 1, -1]):
                xi = np.asarray(xi[:d], dtype=float)
                phase = space.points @ xi
                for phi in (np.cos(phase), np.sin(phase)):
                    lap_phi = -np.dot(xi, xi) * phi
                    hess_phi = -phi[:, None, None] * np.outer(xi, xi)[None, :, :]
                    lhs = w * np.sum(pi * lap_phi)
                    rhs = -w * np.sum(H * hess_phi)
                    assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(rhs))


def test_pi_H_multiplier_is_a_contraction():
    # the symbol k k^T / |k|^2 has Frobenius norm one, so the L2 norm of
    # pi_H never exceeds that of H
    rng = np.random.default_rng(4)
    for space in operator_spaces():
        for _ in range(5):
            H = rng.standard_normal((space.M ** space.d, space.d, space.d))
            pi = pressure.solve_pi_H(space, H)
            assert np.sum(pi ** 2) <= np.sum(H ** 2) + 1e-10


def test_pi_h_vanishes():
    space = make_space()
    assert np.all(pressure.solve_pi_h(space) == 0.0)


def test_pi_Phi_analytic_example():
    # one step, single noise field sin(x1) e1 with unit increment:
    # div = cos(x1), pi_Phi = lap^-1 cos(x1) = -cos(x1), the composition
    # that decompose applies to the running noise sum
    space = make_space()
    x1 = space.points[:, 0]
    noise_sum = np.zeros((space.M ** 2, 2))
    noise_sum[:, 0] = np.sin(x1)
    pi = pressure.inverse_laplacian(space, pressure.divergence_vector(space, noise_sum))
    assert np.max(np.abs(pi - (-np.cos(x1)))) < 1e-10


def test_pi_Phi_zero_increments():
    # a noisy trajectory whose increments are set to zero has no
    # stochastic pressure, while its noise norms stay positive
    space = make_space()
    problem = Problem(ConstitutiveParams(p=1.8), space,
                      NoiseModel(family="smooth_norm", K=4), None,
                      0.8 * np.cos(np.arange(8.0)), SdeStepConfig(dt=5e-3), 5)
    traj = run_trajectory(problem, seed=5)
    silent = dataclasses.replace(traj, increments=np.zeros_like(traj.increments))
    dec = pressure.decompose(silent)
    assert np.max(np.abs(dec.pi_Phi_series)) < 1e-14
    assert np.all(dec.hs_series > 0.0)
    assert np.max(np.abs(pressure.decompose(traj).pi_Phi_series)) > 1e-6


def run_small(noise=True, scheme="euler_maruyama", alpha=0.0, forcing=None,
              n_steps=20, dt=5e-3, seed=3, family="linear"):
    params = ConstitutiveParams(p=1.8, alpha=alpha)
    model = NoiseModel(family=family, K=8) if noise else None
    v0 = np.zeros(8)
    v0[0], v0[2] = 1.0, 0.5
    cfg = SdeStepConfig(dt=dt, scheme=scheme)
    return run_trajectory(Problem(params, make_space(), model, forcing, v0, cfg, n_steps),
                          seed=seed)


def test_decompose_shapes_and_split():
    traj = run_small()
    space = traj.problem.space
    dec = pressure.decompose(traj)
    n_pts = space.M ** 2
    assert dec.pi_H_series.shape == (traj.n_steps, n_pts)
    assert dec.pi_Phi_series.shape == (traj.n_steps + 1, n_pts)
    assert np.all(dec.pi_h == 0.0)
    assert np.max(np.abs(dec.pi_Phi_series[0])) == 0.0
    # stress/remainder split sums to the full flux pressure
    assert np.max(np.abs(dec.pi_1_series + dec.pi_2_series - dec.pi_H_series)) < 1e-10
    # every part is mean-zero
    for series in (dec.pi_H_series, dec.pi_Phi_series, dec.pi_1_series, dec.pi_2_series):
        assert np.max(np.abs(np.mean(series, axis=1))) < 1e-12


def test_weak_residual_vanishes_at_time_zero():
    traj = run_small()
    dec = pressure.decompose(traj)
    rng = np.random.default_rng(6)
    test = rng.standard_normal((traj.problem.space.M ** 2, 2))
    res = pressure.weak_residual(traj, dec, test, t_index=0)
    assert res < 1e-14


@pytest.mark.parametrize("t_index", [-1, 11, 2.0, True])
def test_weak_residual_refuses_a_time_outside_the_run(t_index):
    # t_index = -1 used to mix the last row with the time sums of no step
    # (the flux) and of all but the last (pi_H), and n_steps + 1 ended in
    # an IndexError
    traj = run_small(n_steps=10)
    dec = pressure.decompose(traj)
    test = np.random.default_rng(1).standard_normal((traj.problem.space.M ** 2, 2))
    with pytest.raises(ValueError, match="t_index"):
        pressure.weak_residual(traj, dec, test, t_index=t_index)
    last = pressure.weak_residual(traj, dec, test, t_index=np.int64(10))
    assert last == pressure.weak_residual(traj, dec, test)


def test_weak_residual_first_order_in_dt():
    # noise-free Newtonian semi-implicit run whose dynamics stay inside the
    # span: read with the left-point quadrature, the residual is pure
    # time-discretization error and halves with dt; read with the scheme's
    # own quadrature (implicit stress at C_{n+1}) it is round-off
    space = make_space()
    params = ConstitutiveParams(p=2.0)
    forcing = None
    v0 = np.zeros(8)
    v0[0] = 1.0
    rng = np.random.default_rng(7)
    test = rng.standard_normal((space.M ** 2, 2))
    residuals = []
    for dt, n_steps in ((1e-2, 20), (5e-3, 40)):
        cfg = SdeStepConfig(dt=dt, scheme="semi_implicit")
        traj = run_trajectory(Problem(params, space, None, forcing, v0, cfg, n_steps))
        dec = pressure.decompose(traj)
        left_point = dataclasses.replace(
            traj, problem=dataclasses.replace(traj.problem, cfg=SdeStepConfig(dt=dt)))
        residuals.append(pressure.weak_residual(left_point, dec, test))
        assert pressure.weak_residual(traj, dec, test) < 1e-12
    ratio = residuals[0] / residuals[1]
    assert 1.7 < ratio < 2.3


def test_weak_residual_small_against_gradient_field():
    # the pi terms exactly cancel the action on gradient test fields, so
    # the residual is at the time-discretization level even though the test
    # field is curl-free
    traj = run_small(alpha=0.2)
    space = traj.problem.space
    dec = pressure.decompose(traj)
    scalar = np.cos(space.points[:, 0] + 2.0 * space.points[:, 1])
    test = pressure.gradient_scalar(space, scalar)
    res = pressure.weak_residual(traj, dec, test)
    assert res < 1e-10


def mode_field(space, n):
    """w_n on the grid: the n-th row of the unit block, synthesized."""
    return synthesize(space, np.eye(space.N)[n])


def residual_series(traj, test_field):
    """The weak residual against test_field at every recorded time."""
    dec = pressure.decompose(traj)
    return np.array([pressure.weak_residual(traj, dec, test_field, t_index=t)
                     for t in range(traj.n_steps + 1)])


def test_weak_residual_galerkin_modes():
    N, N_big = 8, 16
    M = suggest_grid(2, N_big)
    space = build_space(2, N, M)
    test_space = build_space(2, N_big, M)
    params = ConstitutiveParams(p=1.8, alpha=0.1)
    model = NoiseModel(family="linear", K=8)
    forcing = None
    v0 = np.zeros(N)
    v0[0], v0[2] = 1.0, 0.5
    cfg = SdeStepConfig(dt=0.005)
    traj = run_trajectory(Problem(params, space, model, forcing, v0, cfg, 40), seed=9)
    # resolved modes satisfy the identity to solver precision
    for j in (1, 4, 8):
        res = residual_series(traj, mode_field(space, j - 1))
        assert res[0] == 0.0
        assert np.max(res) < 1e-12
    # unresolved modes see only the Galerkin truncation error, which is small
    # but generally nonzero
    res_hi = residual_series(traj, mode_field(test_space, N_big - 1))
    assert np.max(res_hi) < 1e-2
    dec = pressure.decompose(traj)
    with pytest.raises(ValueError):  # a test field off the trajectory's grid
        pressure.weak_residual(traj, dec, mode_field(build_space(2, N_big, M + 1), N_big - 1))


def test_weak_residual_semi_implicit_scheme_aware():
    space = make_space(8)
    params = ConstitutiveParams(p=1.8)
    forcing = None
    v0 = np.zeros(8)
    v0[0] = 1.0
    cfg = SdeStepConfig(dt=0.005, scheme="semi_implicit")
    traj = run_trajectory(Problem(params, space, None, forcing, v0, cfg, 20))
    res = residual_series(traj, mode_field(space, 0))
    assert np.max(res) < 1e-8  # right-point stress matches the implicit solve


def test_estimate_check_reports_finite_ratios():
    traj = run_small()
    params = traj.problem.params
    report = pressure.estimate_check([traj])
    assert abs(report["s"] - params.p / (params.p - 1.0)) < 1e-12
    assert report["chi"] == 2.0  # s = p' = 2.25 caps at 2
    assert np.isfinite(report["pi_H_ratio"]) and report["pi_H_ratio"] >= 0.0
    assert np.isfinite(report["pi_Phi_ratio"]) and report["pi_Phi_ratio"] >= 0.0
    assert report["pi_h_sup"] == 0.0
    assert report["pi_H_lhs"] <= report["pi_H_rhs"] * max(report["pi_H_ratio"], 1.0) + 1e-12


def test_estimate_check_refuses_trajectories_of_different_problems():
    traj = run_small(n_steps=3)
    twin = run_small(n_steps=3)  # equal parts, but another Problem
    assert pressure.estimate_check([traj, run_trajectory(traj.problem, seed=4)])
    with pytest.raises(ValueError, match="different problems"):
        pressure.estimate_check([traj, twin])
    with pytest.raises(ValueError, match="at least one trajectory"):
        pressure.estimate_check([])


def chunk_steps(space):
    return max(1, pressure._CHUNK_POINTS // space.M ** space.d)


def test_decompose_makes_one_transform_pair_per_operator(call_counter, monkeypatch):
    # with noise and a stabilizer, each chunk of steps lifts the zero-order
    # term, solves pi_H for the stacked flux parts and updates pi_Phi: three
    # operator calls, each one fused symbol between one transform pair, and
    # the per-axis DFT matrices leave np.fft unused (smooth_norm noise: linear
    # noise skips pi_Phi); the flux and the noise increments of a chunk read
    # one synthesis of its velocity
    traj = run_small(alpha=0.2, n_steps=8, family="smooth_norm")
    space = traj.problem.space
    monkeypatch.setattr(pressure, "_CHUNK_POINTS", 3 * space.M ** space.d)
    n_chunks = math.ceil(traj.n_steps / chunk_steps(space))
    assert n_chunks == 3
    helper_calls = call_counter(pressure, *HELPERS)
    flux_calls = call_counter(pressure, "assemble_H")
    symbol_calls = call_counter(pressure, "_apply_symbol")
    synth_calls = call_counter(pressure, "synthesize")
    fft_calls = call_counter(np.fft, *np.fft.__all__)
    pressure.decompose(traj)
    assert sum(helper_calls.values()) == 3 * n_chunks
    assert symbol_calls == {"_apply_symbol": 3 * n_chunks}
    assert not any(fft_calls.values())
    assert flux_calls == {"assemble_H": n_chunks}
    assert synth_calls == {"synthesize": n_chunks}


def test_linear_noise_has_no_stochastic_pressure(call_counter):
    # Phi(v) e_k = a_k v is divergence-free, so pi_Phi is exactly zero and
    # costs no transform, while the noise norms are still recorded
    traj = run_small(n_steps=8)
    div_calls = call_counter(pressure, "divergence_vector")
    dec = pressure.decompose(traj)
    assert not np.any(dec.pi_Phi_series)
    assert np.all(dec.hs_series > 0.0)
    assert div_calls == {"divergence_vector": 0}


def test_decompose_calls_the_traced_spans(call_counter):
    # the benchmark's traced run requires decompose to enter assemble_H and
    # the transform helpers, even without noise or a zero-order term
    traj = run_small(noise=False, n_steps=3)
    helper_calls = call_counter(pressure, *HELPERS)
    flux_calls = call_counter(pressure, "assemble_H")
    pressure.decompose(traj)
    assert flux_calls["assemble_H"] >= 1
    assert sum(helper_calls.values()) >= 1


@pytest.mark.parametrize("scheme", ["euler_maruyama", "semi_implicit"])
def test_flux_stress_is_the_integrators_stress(monkeypatch, scheme):
    # H1 at the rows of a trajectory is, bit for bit, the stress that the
    # integrator stepped with at those left points: both take the strain as
    # symmetric_part of one velocity_gradient; at the rows C_{n+1} (the
    # semi-implicit weak residual) it is the stress of the next left point
    stresses = []
    original = galerkin.eval_stress

    def recording(params, eps):
        stress = original(params, eps)
        if eps.ndim == 4:  # a left point (M^d, 1, d, d), not a Newton iterate
            stresses.append(stress[:, 0].copy())
        return stress

    monkeypatch.setattr(galerkin, "eval_stress", recording)
    traj = run_small(scheme=scheme, alpha=0.2, n_steps=6)
    space, params, forcing = traj.problem.space, traj.problem.params, traj.problem.forcing
    stress = np.stack(stresses, axis=1)
    rows = traj.coeffs[:-1]
    h = pressure.assemble_H(space, params, rows, synthesize(space, rows), forcing)
    assert np.array_equal(h[:, :, 0], stress)
    h = pressure.assemble_H(space, params, rows, synthesize(space, rows), forcing,
                            traj.coeffs[1:])
    assert np.array_equal(h[:, :-1, 0], stress[:, 1:])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3])
def test_flux_is_the_integrators_drift(d, alpha):
    # <H1 + H2, grad w_k> at the rows of an Euler-Maruyama trajectory is
    # minus the drift that the step adds at those left points: H1 is the
    # stress force, and H2 the convection with the stabilizer and the body
    # force lifted to a divergence
    space = build_space(d, 8, suggest_grid(d, 8))
    params = ConstitutiveParams(p=1.8, alpha=alpha)
    forcing = synthesize(space, 2.0 * np.eye(space.N)[1])
    v0 = np.zeros(space.N)
    v0[0], v0[2] = 1.0, 0.5
    problem = Problem(params, space, NoiseModel(family="linear", K=8), forcing, v0,
                      SdeStepConfig(dt=5e-3), 6)
    rows = run_trajectory(problem, seed=3).coeffs[:-1]
    h = pressure.assemble_H(space, params, rows, synthesize(space, rows), forcing)
    flux = analyze_gradient(space, h[:, :, 0] + h[:, :, 1])
    want = -np.stack([drift(params, space, row, forcing) for row in rows])
    assert np.max(np.abs(flux - want)) <= 1e-12 * np.max(np.abs(want))


def test_symbols_are_built_once_per_grid():
    # the half spectrum of an even grid ends at the Nyquist bin of its last
    # axis; that bin's wavenumber -M/2 enters the even symbols, and the odd
    # ones drop it on every axis; a symbol is stored as one (in, out) matrix
    # per bin, the bins in grid order
    grad = pressure._half_symbol(pressure._gradient_symbol, 0, 2, 10)
    lap = pressure._half_symbol(pressure._laplacian_symbol, 0, 2, 10)
    assert grad.shape == (60, 1, 2) and lap.shape == (60, 1)
    grad, lap = grad.reshape(10, 6, 2), lap.reshape(10, 6)
    assert not np.any(grad.real)
    assert np.array_equal(grad[0, :, 1].imag, [0, 1, 2, 3, 4, 0])
    assert np.array_equal(grad[:, 0, 0].imag, [0, 1, 2, 3, 4, 0, -4, -3, -2, -1])
    assert (lap[0, 5], lap[5, 5]) == (-25.0, -50.0)
    # each symbol is built at the first call on a grid with its number of
    # input axes and shared by every space on that grid
    pressure._half_symbol.cache_clear()
    rng = np.random.default_rng(5)
    for space in (make_space(M=10), make_space(N=4, M=10)):
        values = rng.standard_normal((100, 2))
        pressure.inverse_laplacian(space, pressure.divergence_vector(space, values))
        pressure.gradient_scalar(space, values)
    info = pressure._half_symbol.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_estimate_check_reads_the_decomposition(call_counter, monkeypatch):
    # the flux and the noise fields are built once per chunk, by decompose
    traj_a = run_small(alpha=0.2, n_steps=6)
    traj_b = run_trajectory(traj_a.problem, seed=4)
    space = traj_a.problem.space
    monkeypatch.setattr(pressure, "_CHUNK_POINTS", 4 * space.M ** space.d)
    n_chunks = math.ceil(6 / chunk_steps(space))
    decs = [pressure.decompose(t) for t in (traj_a, traj_b)]
    counts = call_counter(pressure, "assemble_H", "apply_phi")
    report = pressure.estimate_check([traj_a, traj_b])
    assert counts == {"assemble_H": 2 * n_chunks, "apply_phi": 2 * n_chunks}
    assert report["max_abs_mean"] == max(
        float(np.max(np.abs(np.mean(series, axis=1))))
        for dec in decs for series in (dec.pi_H_series, dec.pi_Phi_series))


def per_step_flux(space, params, coeffs, forcing):
    """(H1, H2) at one coefficient vector, assembled field by field."""
    eps = symmetric_gradient(space, coeffs)
    h1 = eval_stress(params, eps)
    v = synthesize(space, coeffs)
    h2 = -v[:, :, None] * v[:, None, :]
    zero_order = np.zeros_like(v)
    if params.alpha > 0.0:
        zero_order += eval_stabilizer(params, v)
    if forcing is not None:
        zero_order -= forcing
    if np.any(zero_order):
        zero_order = zero_order - np.mean(zero_order, axis=0)
        h2 = h2 - pressure._field_gradient(space, pressure.inverse_laplacian(space, zero_order))
    return h1, h2


def per_step_decompose(traj):
    """Oracle: the decomposition one step at a time, with a running sum of
    the noise increments."""
    space, params, model, forcing = (traj.problem.space, traj.problem.params,
                                     traj.problem.model, traj.problem.forcing)
    n, n_pts = traj.n_steps, space.M ** space.d
    out = {"pi_1_series": np.zeros((n, n_pts)), "pi_2_series": np.zeros((n, n_pts)),
           "H_sq_series": np.zeros((n, n_pts)), "pi_Phi_series": np.zeros((n + 1, n_pts)),
           "hs_series": np.zeros(n)}
    accum = np.zeros((n_pts, space.d))
    for m in range(n):
        h1, h2 = per_step_flux(space, params, traj.coeffs[m], forcing)
        out["H_sq_series"][m] = np.sum((h1 + h2) ** 2, axis=(-2, -1))
        out["pi_1_series"][m] = pressure.solve_pi_H(space, h1)
        out["pi_2_series"][m] = pressure.solve_pi_H(space, h2)
        if model is not None:
            phi = apply_phi(model, space, synthesize(space, traj.coeffs[m]))
            out["hs_series"][m] = hilbert_schmidt_norm_sq(space, phi)
            accum += np.einsum("kxd,k->xd", phi, traj.increments[m])
            out["pi_Phi_series"][m + 1] = pressure.inverse_laplacian(
                space, pressure.divergence_vector(space, accum))
    out["pi_H_series"] = out["pi_1_series"] + out["pi_2_series"]
    return out


def per_step_weak_residual(traj, dec, test):
    """Oracle: the weak-identity residual at the final time, step by step."""
    space, params, model, forcing = (traj.problem.space, traj.problem.params,
                                     traj.problem.model, traj.problem.forcing)
    w = space.quad_weight
    grad_test = pressure._field_gradient(space, test)
    div_test = np.trace(grad_test, axis1=-2, axis2=-1)
    res = w * float(np.sum((synthesize(space, traj.coeffs[-1])
                            - synthesize(space, traj.coeffs[0])) * test))
    for m in range(traj.n_steps):
        h1, h2 = per_step_flux(space, params, traj.coeffs[m], forcing)
        res += traj.dt * w * float(np.sum((h1 + h2) * grad_test))
        res += traj.dt * w * float(np.sum(dec.pi_H_series[m] * div_test))
        if model is not None:
            phi = apply_phi(model, space, synthesize(space, traj.coeffs[m]))
            res -= w * float(np.sum(np.einsum("kxd,k->xd", phi, traj.increments[m]) * test))
    res -= w * float(np.sum(dec.pi_Phi_series[-1] * div_test))
    return abs(res)


@pytest.mark.parametrize("d, M", [(2, 10), (3, 6)])
@pytest.mark.parametrize("family", [None, "linear", "smooth_norm"])
@pytest.mark.parametrize("alpha, forced", [(0.0, False), (0.3, True)])
@pytest.mark.parametrize("extra", [3, 1])
def test_decompose_matches_per_step_oracle(d, M, family, alpha, forced, extra):
    # two full chunks and a partial one, which may hold a single step, so
    # the running noise sum crosses chunk boundaries; linear noise of a
    # solenoidal field has no pressure, so smooth_norm is the case that
    # checks pi_Phi
    space = build_space(d, 8, M)
    params = ConstitutiveParams(p=1.7, alpha=alpha)
    model = NoiseModel(family=family, K=5) if family else None
    forcing = synthesize(space, np.eye(8)[2]) if forced else None
    v0 = 0.8 * np.cos(np.arange(8.0))
    n_steps = 2 * chunk_steps(space) + extra
    traj = run_trajectory(Problem(params, space, model, forcing, v0, SdeStepConfig(dt=4e-3),
                                  n_steps), seed=11)
    dec = pressure.decompose(traj)
    oracle = per_step_decompose(traj)
    for name, expected in oracle.items():
        got = getattr(dec, name)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * max(
            1.0, float(np.max(np.abs(expected), initial=0.0))), name
    test = np.random.default_rng(12).standard_normal((M ** d, d))
    res = pressure.weak_residual(traj, dec, test)
    expected = per_step_weak_residual(traj, dec, test)
    assert abs(res - expected) <= 1e-12 * max(1.0, expected)


_OPERATORS = {  # name -> number of component axes of its input
    "inverse_laplacian": 0, "laplacian": 0, "gradient_scalar": 0,
    "_field_gradient": 1, "divergence_vector": 1, "div_div_tensor": 2,
}


@settings(max_examples=40)
@given(d=st.sampled_from([2, 3]), m=st.integers(4, 7), name=st.sampled_from(sorted(_OPERATORS)),
       batch=st.lists(st.integers(1, 3), min_size=1, max_size=2), seed=st.integers(0, 2 ** 16))
def test_operators_act_slice_by_slice_on_batches(d, m, name, batch, seed):
    # batch axes sit between the grid axis and the component axes
    space = build_space(d, 2, m)
    op = getattr(pressure, name)
    shape = (m ** d, *batch) + (d,) * _OPERATORS[name]
    values = np.random.default_rng(seed).standard_normal(shape)
    out = op(space, values)
    for index in np.ndindex(*batch):
        expected = op(space, values[(slice(None),) + index])
        np.testing.assert_allclose(out[(slice(None),) + index], expected, rtol=0, atol=1e-13)


def test_decompose_memory_is_bounded_by_a_chunk():
    # the temporaries of decompose are those of one chunk, however long the
    # trajectory: the peak above the outputs grows by less than half
    space = build_space(2, 8, 10)
    params = ConstitutiveParams(p=1.7, alpha=0.3)
    model = NoiseModel(family="smooth_norm", K=8)
    forcing = synthesize(space, np.eye(8)[2])
    chunk = chunk_steps(space)
    cfg, v0 = SdeStepConfig(dt=1e-3), 0.8 * np.cos(np.arange(8.0))
    short, long = (run_trajectory(Problem(params, space, model, forcing, v0, cfg, n), seed=5)
                   for n in (chunk, 8 * chunk))

    def peak_above_outputs(traj):
        tracemalloc.start()
        try:
            dec = pressure.decompose(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in vars(dec).values())

    pressure.decompose(short)  # fills the space's caches
    one, eight = peak_above_outputs(short), peak_above_outputs(long)
    assert eight <= 1.5 * one
