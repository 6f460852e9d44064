import numpy as np
import pytest

from powerlaw_spde.basis import (
    WaveMode,
    analyze,
    build_space,
    l2_norm,
    suggest_grid,
    symmetric_gradient,
    synthesize,
    velocity_gradient,
)


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_space(4, 4, 9)
    with pytest.raises(ValueError):
        build_space(1, 4, 9)


def test_rejects_undersampled_grid():
    with pytest.raises(ValueError):
        build_space(2, 16, 4)  # needs M >= 5 for |xi| component 2


def test_single_mode_has_unit_eigenvalue():
    space = build_space(2, 1, 5)
    assert space.modes[0].eigenvalue == 1.0
    assert space.modes[0].xi in ((1, 0), (0, 1))


def test_mode_count_up_to_lambda_two():
    # xi in {(1,0),(0,1),(1,1),(1,-1)} x 2 parities, one polarization each
    space = build_space(2, 12, suggest_grid(2, 12))
    lam = space.eigenvalues
    assert np.sum(lam <= 2.0) == 8
    assert lam[8] > 2.0


def test_eigenvalues_sorted_and_at_least_one():
    space = build_space(2, 32, suggest_grid(2, 32))
    lam = space.eigenvalues
    assert lam[0] >= 1.0
    assert np.all(np.diff(lam) >= 0.0)


def test_wave_mode_invariants():
    with pytest.raises(ValueError):
        WaveMode((0, 0), "cos", (1.0, 0.0))
    with pytest.raises(ValueError):
        WaveMode((1, 0), "cos", (1.0, 0.0))  # not orthogonal
    with pytest.raises(ValueError):
        WaveMode((1, 0), "cos", (0.0, 2.0))  # not unit


@pytest.mark.parametrize("d", [2, 3])
def test_orthonormality(d):
    N = 16 if d == 2 else 12
    space = build_space(d, N, suggest_grid(d, N))
    gram = space.quad_weight * np.einsum(
        "nxd,mxd->nm", space.mode_fields, space.mode_fields
    )
    assert np.max(np.abs(gram - np.eye(N))) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_modes_divergence_free_against_test_functions(d):
    N = 8
    space = build_space(d, N, suggest_grid(d, N))
    # int div(w_k) phi dx = -int w_k . grad(phi) dx for random smooth phi
    rng = np.random.default_rng(0)
    for _ in range(4):
        xi = rng.integers(-2, 3, size=d).astype(float)
        phase = space.points @ xi
        grad_phi = -np.sin(phase)[:, None] * xi[None, :]
        vals = space.quad_weight * np.einsum(
            "nxd,xd->n", space.mode_fields, grad_phi
        )
        assert np.max(np.abs(vals)) < 1e-10


def test_synthesize_zero_and_unit():
    space = build_space(2, 6, suggest_grid(2, 6))
    zero = synthesize(space, np.zeros(6))
    assert np.all(zero == 0.0)
    one = synthesize(space, np.eye(6)[0])
    assert abs(l2_norm(space, one) - 1.0) < 1e-10


def test_synthesize_length_mismatch():
    space = build_space(2, 6, suggest_grid(2, 6))
    with pytest.raises(ValueError):
        synthesize(space, np.zeros(5))
    with pytest.raises(ValueError):
        analyze(space, np.zeros((9, 2)))


def test_round_trip_identity():
    space = build_space(2, 24, suggest_grid(2, 24))
    rng = np.random.default_rng(5)
    for _ in range(8):
        c = rng.standard_normal(24)
        assert np.max(np.abs(analyze(space, synthesize(space, c)) - c)) < 1e-12


def test_analyze_picks_out_components():
    space = build_space(2, 6, suggest_grid(2, 6))
    c = np.zeros(6)
    c[0], c[2] = 1.0, 0.5
    out = analyze(space, synthesize(space, c))
    assert np.allclose(out, c, atol=1e-12)


def test_analyze_kills_gradient_fields():
    # grad(cos(x1)) is curl-free, hence orthogonal to the solenoidal basis
    space = build_space(2, 12, suggest_grid(2, 12))
    grad_phi = np.zeros((space.M ** 2, 2))
    grad_phi[:, 0] = -np.sin(space.points[:, 0])
    out = analyze(space, grad_phi)
    assert np.max(np.abs(out)) < 1e-10


def test_symmetric_gradient_matches_finite_differences():
    space = build_space(2, 8, suggest_grid(2, 8))
    rng = np.random.default_rng(2)
    c = rng.standard_normal(8)
    eps = symmetric_gradient(space, c)
    # central differences on a fine evaluation of the same trig polynomial
    h = 1e-6
    for idx in [0, 7, 13]:
        x = space.points[idx]
        fd = np.zeros((2, 2))
        for j in range(2):
            for sign in (+1, -1):
                xs = x.copy()
                xs[j] += sign * h
                v = np.zeros(2)
                for n, mode in enumerate(space.modes):
                    xi = np.asarray(mode.xi, dtype=float)
                    pol = np.asarray(mode.pol)
                    amp = np.sqrt(2.0) / (2.0 * np.pi)
                    f = np.cos(xs @ xi) if mode.parity == "cos" else np.sin(xs @ xi)
                    v += c[n] * amp * f * pol
                fd[:, j] += sign * v / (2.0 * h)
        fd_sym = 0.5 * (fd + fd.T)
        assert np.max(np.abs(eps[idx] - fd_sym)) < 1e-6


def test_symmetric_gradient_trace_free():
    space = build_space(2, 16, suggest_grid(2, 16))
    rng = np.random.default_rng(3)
    for _ in range(8):
        eps = symmetric_gradient(space, rng.standard_normal(16))
        assert np.max(np.abs(np.trace(eps, axis1=-2, axis2=-1))) < 1e-10


def test_eps_energy_is_half_gradient_energy():
    # int |eps(v)|^2 = 0.5 int |grad v|^2 for solenoidal fields
    space = build_space(2, 16, suggest_grid(2, 16))
    rng = np.random.default_rng(4)
    for _ in range(4):
        c = rng.standard_normal(16)
        eps = symmetric_gradient(space, c)
        grad = velocity_gradient(space, c)
        lhs = space.quad_weight * np.sum(eps ** 2)
        rhs = 0.5 * space.quad_weight * np.sum(grad ** 2)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + rhs)


def test_single_mode_eps_dissipation_is_half_eigenvalue():
    space = build_space(2, 8, suggest_grid(2, 8))
    for k in range(8):
        eps = symmetric_gradient(space, np.eye(8)[k])
        val = space.quad_weight * np.sum(eps ** 2)
        assert abs(val - space.eigenvalues[k] / 2.0) < 1e-10
