import numpy as np
import pytest

from powerlaw_spde.basis import build_space, suggest_grid, synthesize
from powerlaw_spde.noise import (
    FAMILIES,
    NoiseModel,
    WienerPath,
    apply_phi,
    eval_g,
    growth_bound_holds,
    hilbert_schmidt_norm_sq,
    mode_decay_bound_holds,
    u0_norm,
)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(family="white", K=4, d=2)
    with pytest.raises(ValueError):
        NoiseModel(family="linear", K=0, d=2)
    with pytest.raises(ValueError):
        NoiseModel(family="linear", K=4, d=2, per_mode_scale=np.ones(3))


def test_default_per_mode_scale_is_geometric():
    model = NoiseModel(family="linear", K=5, d=2)
    assert np.allclose(model.per_mode_scale, 2.0 ** -np.arange(1, 6))


def test_additive_family_is_state_independent():
    model = NoiseModel(family="additive", K=4, d=2, amplitude=3.0)
    xi = np.random.default_rng(0).standard_normal((10, 2))
    g1 = eval_g(model, 1, xi)
    assert np.allclose(g1, np.broadcast_to([1.5, 0.0], (10, 2)))  # a_1 c0 e1
    g2 = eval_g(model, 2, xi)
    assert np.allclose(g2, np.broadcast_to([0.0, 0.75], (10, 2)))  # axes cycle


def test_linear_family_vanishes_at_origin():
    model = NoiseModel(family="linear", K=4, d=3)
    assert np.all(eval_g(model, 2, np.zeros(3)) == 0.0)
    xi = np.array([2.0, -4.0, 6.0])
    assert np.allclose(eval_g(model, 3, xi), 2.0 ** -3 * xi)


def test_smooth_norm_family_value():
    model = NoiseModel(family="smooth_norm", K=4, d=2)
    xi = np.array([1.0, 0.0])
    g1 = eval_g(model, 1, xi)
    assert np.allclose(g1, [0.5 * np.sqrt(2.0), 0.0], atol=1e-14)


def test_eval_g_index_range():
    model = NoiseModel(family="linear", K=4, d=2)
    with pytest.raises(ValueError):
        eval_g(model, 0, np.zeros(2))
    with pytest.raises(ValueError):
        eval_g(model, 5, np.zeros(2))


@pytest.mark.parametrize("family", ["additive", "linear", "smooth_norm"])
@pytest.mark.parametrize("d", [2, 3])
def test_growth_and_decay_bounds(family, d):
    model = NoiseModel(family=family, K=16, d=d)
    rng = np.random.default_rng(11)
    xi = 20.0 * rng.standard_normal((3000, d))
    assert growth_bound_holds(model, xi)
    assert mode_decay_bound_holds(model, xi)


def test_linear_gradient_sum_below_one_third():
    # sum_k |grad g_k|^2 = d sum_k 4^-k <= d/3 for the linear family
    model = NoiseModel(family="linear", K=16, d=2)
    grad_sum = model.d * float(np.sum(model.per_mode_scale ** 2))
    assert grad_sum <= model.d / 3.0 + 1e-15
    assert model.growth_constant >= grad_sum - 1e-15


def test_apply_phi_shape_and_mismatch():
    space = build_space(2, 4, suggest_grid(2, 4))
    xi = synthesize(space, np.ones(4))
    root = np.sqrt(1.0 + np.sum(xi ** 2, axis=-1, keepdims=True))
    for family in FAMILIES:
        model = NoiseModel(family=family, K=6, d=2, amplitude=1.5)
        phi = apply_phi(model, space, xi)
        assert phi.shape == (6, space.M ** 2, 2)
        # one mode at a time, in the same operand order
        for k in range(1, 7):
            a, u = 2.0 ** -k, np.eye(2)[(k - 1) % 2]
            expected = {"additive": np.broadcast_to(a * 1.5 * u, xi.shape),
                        "linear": a * xi,
                        "smooth_norm": a * 1.5 * root * u}[family]
            assert np.array_equal(phi[k - 1], expected)
            assert np.array_equal(eval_g(model, k, xi), expected)
    with pytest.raises(ValueError):
        apply_phi(model, space, np.zeros((3, 2)))


def test_hilbert_schmidt_norm_constant_magnitude_field():
    # |v| = v0 everywhere gives sum_k a_k^2 v0^2 (2pi)^2 -> (1/3) v0^2 (2pi)^2
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=16, d=2)
    v0 = 1.7
    vals = np.stack([v0 * np.cos(space.points[:, 0]),
                     v0 * np.sin(space.points[:, 0])], axis=-1)
    hs = hilbert_schmidt_norm_sq(space, apply_phi(model, space, vals))
    target = v0 ** 2 * (2.0 * np.pi) ** 2 / 3.0
    assert abs(hs - target) < 1e-6 * target


def test_hilbert_schmidt_additive_is_field_independent():
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="additive", K=8, d=2)
    a = hilbert_schmidt_norm_sq(space, apply_phi(model, space, synthesize(space, np.zeros(4))))
    b = hilbert_schmidt_norm_sq(space, apply_phi(model, space, synthesize(space, np.ones(4))))
    assert abs(a - b) < 1e-12
    # sum_k a_k^2 (2pi)^2 with K = 8
    target = float(np.sum(4.0 ** -np.arange(1, 9))) * (2.0 * np.pi) ** 2
    assert abs(a - target) < 1e-10


def test_u0_norm_values():
    assert abs(u0_norm([1.0]) - 1.0) < 1e-15
    assert abs(u0_norm([0.0, 0.0, 2.0]) - 2.0 / 3.0) < 1e-15
    alpha = np.ones(10)
    target = np.sqrt(np.sum(1.0 / np.arange(1, 11) ** 2))
    assert abs(u0_norm(alpha) - target) < 1e-14


def test_path_reproducibility_and_order_independence():
    a = WienerPath.generate(7, 1e-2, 8, 20)
    b = WienerPath.generate(7, 1e-2, 8, 20)
    assert np.array_equal(a.increments, b.increments)
    # per-step streams: regenerating a longer path leaves early steps intact
    c = WienerPath.generate(7, 1e-2, 8, 40)
    assert np.array_equal(c.increments[:20], a.increments)
    other = WienerPath.generate(8, 1e-2, 8, 20)
    assert not np.array_equal(other.increments, a.increments)


def test_increment_statistics():
    path = WienerPath.generate(1, 0.25, 4, 20000)
    inc = path.increments
    assert abs(np.mean(inc)) < 0.005
    assert abs(np.var(inc) - 0.25) < 0.01
    corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    assert abs(corr) < 0.02


def test_coarsen_aggregates_increments():
    path = WienerPath.generate(3, 0.1, 5, 12)
    coarse = path.coarsen(3)
    assert coarse.n_steps == 4
    assert abs(coarse.dt - 0.3) < 1e-15
    assert np.allclose(coarse.increments[0], path.increments[:3].sum(axis=0))
    # total displacement preserved
    assert np.allclose(coarse.increments.sum(axis=0), path.increments.sum(axis=0))


def test_generate_rejects_bad_dt():
    with pytest.raises(ValueError):
        WienerPath.generate(0, 0.0, 4, 10)
