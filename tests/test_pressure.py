import numpy as np
import pytest

from powerlaw_spde import pressure
from powerlaw_spde.basis import GridField, build_space, suggest_grid, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import Forcing, SdeStepConfig, run_trajectory
from powerlaw_spde.noise import NoiseModel


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


def test_operators_match_per_component_transforms():
    # the reference applies each symbol with one transform per component
    rng = np.random.default_rng(8)
    for space in operator_spaces():
        d, n_pts = space.d, space.M ** space.d
        ks = np.meshgrid(*([np.fft.fftfreq(space.M, 1.0 / space.M)] * d), indexing="ij")
        k_sq = sum(k ** 2 for k in ks)

        def fft(f):
            return np.fft.fftn(f.reshape(space.grid_shape))

        def ifft(hat):
            return np.real(np.fft.ifftn(hat)).ravel()

        def inv_lap(f):
            return ifft(np.where(k_sq == 0, 0.0, fft(f) / np.where(k_sq == 0, 1.0, -k_sq)))

        def grad(f):
            return np.stack([ifft(1j * k * fft(f)) for k in ks], axis=-1)

        s = rng.standard_normal(n_pts)
        v = rng.standard_normal((n_pts, d))
        h = rng.standard_normal((n_pts, d, d))
        cases = [
            (pressure.laplacian(space, s), ifft(-k_sq * fft(s))),
            (pressure.inverse_laplacian(space, s), inv_lap(s)),
            (pressure.inverse_laplacian(space, v),
             np.stack([inv_lap(v[:, i]) for i in range(d)], axis=-1)),
            (pressure.gradient_scalar(space, s), grad(s)),
            (pressure._field_gradient(space, v),
             np.stack([grad(v[:, i]) for i in range(d)], axis=1)),
            (pressure.divergence_vector(space, v),
             ifft(sum(1j * ks[j] * fft(v[:, j]) for j in range(d)))),
            (pressure.div_div_tensor(space, h),
             ifft(sum(-ks[i] * ks[j] * fft(h[:, i, j]) for i in range(d) for j in range(d)))),
        ]
        for got, expected in cases:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) < 1e-12


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
    # div = cos(x1), pi_Phi = lap^-1 cos(x1) = -cos(x1)
    space = make_space()
    x1 = space.points[:, 0]
    fields = np.zeros((1, 1, space.M ** 2, 2))
    fields[0, 0, :, 0] = np.sin(x1)
    inc = np.ones((1, 1))
    pi = pressure.solve_pi_Phi(space, fields, inc)
    assert np.max(np.abs(pi - (-np.cos(x1)))) < 1e-10


def test_pi_Phi_zero_increments():
    space = make_space()
    fields = np.random.default_rng(5).standard_normal((3, 2, space.M ** 2, 2))
    inc = np.zeros((3, 2))
    assert np.max(np.abs(pressure.solve_pi_Phi(space, fields, inc))) < 1e-14
    with pytest.raises(ValueError):
        pressure.solve_pi_Phi(space, fields, np.zeros((2, 2)))


def run_small(noise=True, scheme="euler_maruyama", alpha=0.0, forcing=None,
              n_steps=20, dt=5e-3, seed=3):
    space = make_space()
    params = ConstitutiveParams(p=1.8, alpha=alpha, d=2)
    model = NoiseModel(family="linear", K=8, d=2) if noise else None
    forcing = forcing or Forcing(mode="zero")
    v0 = np.zeros(8)
    v0[0], v0[2] = 1.0, 0.5
    cfg = SdeStepConfig(dt=dt, scheme=scheme)
    traj = run_trajectory(params, space, model, forcing, v0, cfg, n_steps, seed=seed)
    return space, params, model, forcing, traj


def test_decompose_shapes_and_split():
    space, params, model, forcing, traj = run_small()
    dec = pressure.decompose(space, params, model, forcing, traj)
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
    space, params, model, forcing, traj = run_small()
    dec = pressure.decompose(space, params, model, forcing, traj)
    rng = np.random.default_rng(6)
    test = GridField(rng.standard_normal((space.M ** 2, 2)), space.domain_measure)
    res = pressure.weak_residual(space, params, model, forcing, traj, dec,
                                 test, t_index=0)
    assert res < 1e-14


def test_weak_residual_first_order_in_dt():
    # noise-free Newtonian semi-implicit run whose dynamics stay inside the
    # span: the residual is pure time-discretization error and halves with dt
    space = make_space()
    params = ConstitutiveParams(p=2.0, d=2)
    forcing = Forcing(mode="zero")
    v0 = np.zeros(8)
    v0[0] = 1.0
    rng = np.random.default_rng(7)
    test = GridField(rng.standard_normal((space.M ** 2, 2)), space.domain_measure)
    residuals = []
    for dt, n_steps in ((1e-2, 20), (5e-3, 40)):
        cfg = SdeStepConfig(dt=dt, scheme="semi_implicit")
        traj = run_trajectory(params, space, None, forcing, v0, cfg, n_steps)
        dec = pressure.decompose(space, params, None, forcing, traj)
        residuals.append(pressure.weak_residual(
            space, params, None, forcing, traj, dec, test))
    ratio = residuals[0] / residuals[1]
    assert 1.7 < ratio < 2.3


def test_weak_residual_small_against_gradient_field():
    # the pi terms exactly cancel the action on gradient test fields, so
    # the residual is at the time-discretization level even though the test
    # field is curl-free
    space, params, model, forcing, traj = run_small(alpha=0.2)
    dec = pressure.decompose(space, params, model, forcing, traj)
    scalar = np.cos(space.points[:, 0] + 2.0 * space.points[:, 1])
    test = GridField(pressure.gradient_scalar(space, scalar), space.domain_measure)
    res = pressure.weak_residual(space, params, model, forcing, traj, dec, test)
    assert res < 1e-10


def test_estimate_check_reports_finite_ratios():
    space, params, model, forcing, traj = run_small()
    report = pressure.estimate_check(space, params, model, forcing, [traj])
    assert abs(report["s"] - params.p / (params.p - 1.0)) < 1e-12
    assert report["chi"] == 2.0  # s = p' = 2.25 caps at 2
    assert np.isfinite(report["pi_H_ratio"]) and report["pi_H_ratio"] >= 0.0
    assert np.isfinite(report["pi_Phi_ratio"]) and report["pi_Phi_ratio"] >= 0.0
    assert report["pi_h_sup"] == 0.0
    assert report["pi_H_lhs"] <= report["pi_H_rhs"] * max(report["pi_H_ratio"], 1.0) + 1e-12


def test_decompose_makes_one_transform_pair_per_operator(call_counter):
    # with noise and a stabilizer, each step lifts the zero-order term
    # (2 operator calls), solves pi_H for both flux parts (2 each) and
    # updates pi_Phi (2): eight operators, each one fftn and one ifftn
    space, params, model, forcing, traj = run_small(alpha=0.2, n_steps=3)
    helpers = ("inverse_laplacian", "laplacian", "gradient_scalar",
               "divergence_vector", "div_div_tensor", "_field_gradient")
    helper_calls = call_counter(pressure, *helpers)
    fft_calls = call_counter(np.fft, "fftn", "ifftn")
    pressure.decompose(space, params, model, forcing, traj)
    assert sum(helper_calls.values()) == 8 * traj.n_steps
    assert fft_calls == {"fftn": 8 * traj.n_steps, "ifftn": 8 * traj.n_steps}


def test_wavevector_grid_is_built_once():
    space = make_space(M=10)
    k = space.wavevectors
    assert k.shape == (10, 10, 2) and k.dtype.kind == "i"
    assert np.array_equal(k[:, 0, 0], np.fft.fftfreq(10, 0.1).astype(int))
    assert space.wavevectors is k


def test_estimate_check_reads_the_decomposition(call_counter):
    # the flux and the noise fields are built once per step, by decompose
    space, params, model, forcing, traj_a = run_small(alpha=0.2, n_steps=6)
    traj_b = run_small(alpha=0.2, n_steps=6, seed=4)[-1]
    decs = [pressure.decompose(space, params, model, forcing, t) for t in (traj_a, traj_b)]
    counts = call_counter(pressure, "assemble_H", "apply_phi")
    report = pressure.estimate_check(space, params, model, forcing, [traj_a, traj_b])
    assert counts == {"assemble_H": 12, "apply_phi": 12}
    assert report["max_abs_mean"] == max(
        float(np.max(np.abs(np.mean(series, axis=1))))
        for dec in decs for series in (dec.pi_H_series, dec.pi_Phi_series))
