import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerlaw_spde.basis import build_space, suggest_grid, synthesize
from powerlaw_spde.noise import (
    FAMILIES,
    NoiseModel,
    WienerPath,
    apply_phi,
    generators,
    growth_bound_holds,
    hilbert_schmidt_norm_sq,
    mode_decay_bound_holds,
)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(family="white", K=4)
    with pytest.raises(ValueError):
        NoiseModel(family="linear", K=0)


def test_default_per_mode_scale_is_geometric():
    model = NoiseModel(family="linear", K=5)
    assert np.allclose(model.per_mode_scale, 2.0 ** -np.arange(1, 6))
    with pytest.raises(ValueError):  # read-only: shared by every use of the model
        model.per_mode_scale[0] = 1.0


def grid_values(d, value):
    """A space of dimension d and the constant velocity value (d,) sampled
    on its grid, shape (M^d, d)."""
    space = build_space(d, 2, suggest_grid(d, 2))
    return space, np.broadcast_to(np.asarray(value, dtype=float), (space.M ** d, d))


def test_additive_family_is_state_independent():
    model = NoiseModel(family="additive", K=4, amplitude=3.0)
    space = build_space(2, 2, suggest_grid(2, 2))
    xi = np.random.default_rng(0).standard_normal((space.M ** 2, 2))
    phi = apply_phi(model, space, xi)
    assert np.allclose(phi[0], np.broadcast_to([1.5, 0.0], xi.shape))  # a_1 c0 e1
    assert np.allclose(phi[1], np.broadcast_to([0.0, 0.75], xi.shape))  # axes cycle


def test_linear_family_vanishes_at_origin():
    model = NoiseModel(family="linear", K=4)
    space, zero = grid_values(3, np.zeros(3))
    assert np.all(apply_phi(model, space, zero)[1] == 0.0)
    space, xi = grid_values(3, [2.0, -4.0, 6.0])
    assert np.allclose(apply_phi(model, space, xi)[2], 2.0 ** -3 * xi)


def test_smooth_norm_family_value():
    model = NoiseModel(family="smooth_norm", K=4)
    space, xi = grid_values(2, [1.0, 0.0])
    g1 = apply_phi(model, space, xi)[0]
    assert np.allclose(g1, np.broadcast_to([0.5 * np.sqrt(2.0), 0.0], xi.shape), atol=1e-14)


@pytest.mark.parametrize("family", ["additive", "linear", "smooth_norm"])
@pytest.mark.parametrize("d", [2, 3])
def test_growth_and_decay_bounds(family, d):
    model = NoiseModel(family=family, K=16)
    rng = np.random.default_rng(11)
    xi = 20.0 * rng.standard_normal((3000, d))
    assert growth_bound_holds(model, xi)
    assert mode_decay_bound_holds(model, xi)


def test_linear_gradient_sum_below_one_third():
    # sum_k |grad g_k|^2 = d sum_k 4^-k <= d/3 for the linear family
    model, d = NoiseModel(family="linear", K=16), 2
    grad_sum = d * float(np.sum(model.per_mode_scale ** 2))
    assert grad_sum <= d / 3.0 + 1e-15
    assert model.growth_constant(d) >= grad_sum - 1e-15


def test_apply_phi_shape_and_mismatch():
    space = build_space(2, 4, suggest_grid(2, 4))
    xi = synthesize(space, np.ones(4))
    root = np.sqrt(1.0 + np.sum(xi ** 2, axis=-1, keepdims=True))
    for family in FAMILIES:
        model = NoiseModel(family=family, K=6, amplitude=1.5)
        phi = apply_phi(model, space, xi)
        assert phi.shape == (6, space.M ** 2, 2)
        # one mode at a time, in the same operand order
        for k in range(1, 7):
            a, u = 2.0 ** -k, np.eye(2)[(k - 1) % 2]
            expected = {"additive": np.broadcast_to(a * 1.5 * u, xi.shape),
                        "linear": a * xi,
                        "smooth_norm": a * 1.5 * root * u}[family]
            assert np.array_equal(phi[k - 1], expected)
    with pytest.raises(ValueError):
        apply_phi(model, space, np.zeros((3, 2)))


def test_hilbert_schmidt_norm_constant_magnitude_field():
    # |v| = v0 everywhere gives sum_k a_k^2 v0^2 (2pi)^2 -> (1/3) v0^2 (2pi)^2
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="linear", K=16)
    v0 = 1.7
    vals = np.stack([v0 * np.cos(space.points[:, 0]),
                     v0 * np.sin(space.points[:, 0])], axis=-1)
    hs = hilbert_schmidt_norm_sq(space, apply_phi(model, space, vals))
    target = v0 ** 2 * (2.0 * np.pi) ** 2 / 3.0
    assert abs(hs - target) < 1e-6 * target


def test_hilbert_schmidt_additive_is_field_independent():
    space = build_space(2, 4, suggest_grid(2, 4))
    model = NoiseModel(family="additive", K=8)
    a = hilbert_schmidt_norm_sq(space, apply_phi(model, space, synthesize(space, np.zeros(4))))
    b = hilbert_schmidt_norm_sq(space, apply_phi(model, space, synthesize(space, np.ones(4))))
    assert abs(a - b) < 1e-12
    # sum_k a_k^2 (2pi)^2 with K = 8
    target = float(np.sum(4.0 ** -np.arange(1, 9))) * (2.0 * np.pi) ** 2
    assert abs(a - target) < 1e-10


def test_path_reproducibility_and_order_independence():
    a = WienerPath.generate(7, 1e-2, 8, 20)
    b = WienerPath.generate(7, 1e-2, 8, 20)
    assert np.array_equal(a.increments, b.increments)
    # per-step streams: regenerating a longer path leaves early steps intact
    c = WienerPath.generate(7, 1e-2, 8, 40)
    assert np.array_equal(c.increments[:20], a.increments)
    other = WienerPath.generate(8, 1e-2, 8, 20)
    assert not np.array_equal(other.increments, a.increments)


# increments[1] of WienerPath.generate(seed, 0.25, 3, 2), as numpy 2.4 draws them
_PINNED_STEP_1 = {
    0: [0.051483840007180634, -0.49026358551513066, -0.40873916246115877],
    1: [0.26667693919247343, 0.621122838983272, 0.09093866315909939],
    2 ** 32 - 1: [-0.03539594741874162, -0.2890453321317199, 0.11083598848285944],
    2 ** 32: [-0.5475960658547114, -0.026496187682048904, 0.998564694289197],
    2 ** 40 + 3: [-0.16693757232822834, 1.2351268561116788, 0.09110364476558003],
}


@pytest.mark.parametrize("seed", sorted(_PINNED_STEP_1))
def test_wiener_streams_are_pinned(seed):
    # step n of seed s is the stream default_rng((s, n)), scaled by sqrt(dt):
    # a faster draw must keep these streams, and a numpy release that moves
    # them fails here rather than shifting every stored result
    dt, K, n_steps = 0.01, 16, 5
    path = WienerPath.generate(seed, dt, K, n_steps)
    for step in range(n_steps):
        want = np.random.default_rng((seed, step)).standard_normal(K) * np.sqrt(dt)
        assert np.array_equal(path.increments[step], want)
    assert np.array_equal(WienerPath.generate(seed, 0.25, 3, 2).increments[1],
                          _PINNED_STEP_1[seed])


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


@settings(max_examples=60)
@given(family=st.sampled_from(FAMILIES), d=st.sampled_from([2, 3]), K=st.integers(1, 9),
       amplitude=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 16))
def test_noise_fields_mix_the_generator_fields(family, d, K, amplitude, seed):
    # Phi(v) e_k = sum_r U[r, k] G_r(v) pointwise, with G the model's own
    # first r <= min(K, d) modes; every scale is a power of two, so bit for bit
    model = NoiseModel(family=family, K=K, amplitude=amplitude)
    gen, mix = generators(model, d)
    assert gen == NoiseModel(family, K=gen.K, amplitude=amplitude)
    assert gen.K <= min(K, d) and mix.shape == (gen.K, K)
    space = build_space(d, 2, suggest_grid(d, 2))
    xi = 5.0 * np.random.default_rng(seed).standard_normal((space.M ** d, 3, d))
    want = apply_phi(model, space, xi)
    assert np.array_equal(apply_phi(gen, space, xi), want[:gen.K])
    assert np.array_equal(np.einsum("rk,r...->k...", mix, apply_phi(gen, space, xi)), want)
