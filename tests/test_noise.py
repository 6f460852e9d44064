import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powerlaw_spde import noise
from powerlaw_spde.basis import FieldError, build_space, suggest_grid, synthesize
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import Problem, SdeStepConfig, run_coupled
from powerlaw_spde.noise import (
    FAMILIES,
    NoiseModel,
    WienerPath,
    apply_phi,
    generators,
    growth_bound_holds,
    hilbert_schmidt_norm_sq,
    mode_decay_bound_holds,
    profile,
)
from powerlaw_spde.noise import _all_g


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


@pytest.mark.parametrize("family", ["additive", "smooth_norm"])
@pytest.mark.parametrize("shape", [(25, 3, 2), (25, 2), (2,)])
def test_profile_fields_are_the_profile_along_unit_vectors(family, shape):
    # the fields are amplitude a_k s(xi) u_k with s = profile(model, xi)
    model = NoiseModel(family=family, K=5, amplitude=-1.5)
    xi = np.random.default_rng(0).standard_normal(shape)
    got = _all_g(model, xi)
    a = model.per_mode_scale.reshape((5,) + (1,) * xi.ndim)
    u = np.eye(xi.shape[-1])[np.arange(5) % xi.shape[-1]].reshape((5,) + (1,) * (xi.ndim - 1) + (-1,))
    s = np.sqrt(1.0 + np.sum(xi ** 2, axis=-1, keepdims=True)) if family == "smooth_norm" else 1.0
    want = np.broadcast_to(a * model.amplitude * s * u, (5,) + xi.shape)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(profile(model, xi), np.broadcast_to(s, xi.shape[:-1] + (1,))[..., 0])


def test_linear_family_has_no_profile():
    with pytest.raises(ValueError, match="linear family has no scalar profile"):
        profile(NoiseModel(family="linear"), np.zeros((4, 2)))


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


@pytest.mark.parametrize("family", ["additive", "smooth_norm"])
@pytest.mark.parametrize("amplitude", [0.3, 1.0, 2.5])
def test_growth_bound_holds_for_either_sign_of_the_amplitude(family, amplitude):
    # a sign flip of the noise is a valid run with the same bound
    rng = np.random.default_rng(12)
    xi = 20.0 * rng.standard_normal((500, 2))
    plus, minus = (NoiseModel(family=family, K=8, amplitude=a) for a in (amplitude, -amplitude))
    assert plus.growth_constant(2) == minus.growth_constant(2)
    assert growth_bound_holds(plus, xi) and growth_bound_holds(minus, xi)


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
    (a,) = WienerPath.generate([7], 1e-2, 8, 20)
    (b,) = WienerPath.generate([7], 1e-2, 8, 20)
    assert np.array_equal(a, b)
    # per-step streams: regenerating a longer path leaves early steps intact
    (c,) = WienerPath.generate([7], 1e-2, 8, 40)
    assert np.array_equal(c[:20], a)
    (other,) = WienerPath.generate([8], 1e-2, 8, 20)
    assert not np.array_equal(other, a)


# step 1 of WienerPath.generate([seed], 0.25, 3, 2), as numpy 2.4 draws it
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
    (path,) = WienerPath.generate([seed], dt, K, n_steps)
    for step in range(n_steps):
        want = np.random.default_rng((seed, step)).standard_normal(K) * np.sqrt(dt)
        assert np.array_equal(path[step], want)
    assert np.array_equal(WienerPath.generate([seed], 0.25, 3, 2)[0, 1], _PINNED_STEP_1[seed])


# seeds of 1 to 7 uint32 words: with the step word, up to 8 entropy words,
# so seeds >= 2^96 hash words beyond SeedSequence's 4-word pool
_SEEDS_BY_WORDS = st.one_of([st.integers(0, 2 ** 32 - 1)] + [
    st.integers(2 ** (32 * w), 2 ** (32 * w + 32) - 1) for w in range(1, 7)])


@settings(max_examples=60)
@given(seeds=st.lists(_SEEDS_BY_WORDS, min_size=1, max_size=6),
       n_steps=st.integers(0, 7), K=st.integers(1, 5))
@example(seeds=[2 ** 96], n_steps=3, K=2)
@example(seeds=[5, 2 ** 128 + 7, 2 ** 40 + 3], n_steps=3, K=2)
def test_batched_seeding_keeps_every_stream(seeds, n_steps, K):
    # seeds of different word counts hashed in one call: each row is still
    # the stream default_rng((seed, step)), and the seed drawn alone
    dt = 0.04
    paths = WienerPath.generate(seeds, dt, K, n_steps)
    assert paths.shape == (len(seeds), n_steps, K)
    for seed, path in zip(seeds, paths):
        for step in range(n_steps):
            want = np.random.default_rng((seed, step)).standard_normal(K) * np.sqrt(dt)
            assert np.array_equal(path[step], want)
        assert np.array_equal(path, WienerPath.generate([seed], dt, K, n_steps)[0])


def test_batched_seeding_takes_any_seed_sequence():
    # run_ensemble passes a range; seeds of four and more words hash apart
    seeds = range(2 ** 96 - 1, 2 ** 96 + 2)
    paths = WienerPath.generate(seeds, 0.01, 3, 2)
    for seed, path in zip(seeds, paths):
        want = np.random.default_rng((seed, 1)).standard_normal(3) * 0.1
        assert np.array_equal(path[1], want)


@pytest.mark.parametrize("seed", [-1, [3, -2]])
def test_generate_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        WienerPath.generate(seed if isinstance(seed, list) else [seed], 0.01, 2, 3)


@pytest.mark.parametrize("seed", [2.9, -0.5, np.float64(2.0), True, np.bool_(True), "12", None,
                                  [3, 2.5], [0, "1"]])
def test_generate_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # 2.9 and -0.5 were truncated to seeds 2 and 0, True ran as seed 1, and
    # a str in a block is a (refused) seed, never the number it spells
    with pytest.raises(FieldError, match="seed must be a nonnegative integer") as info:
        WienerPath.generate(seed if isinstance(seed, list) else [seed], 0.01, 2, 2)
    assert info.value.field == "seed"


@pytest.mark.parametrize("seeds", [7, np.int64(7), "12", None])
def test_generate_refuses_seeds_that_are_not_a_sequence(seeds, monkeypatch):
    # a single seed or a str (never a sequence of seeds) is refused before any draw
    monkeypatch.setattr(noise, "_seed_states", None)  # any draw would fail
    with pytest.raises(FieldError, match="seeds must be a sequence of seeds") as info:
        WienerPath.generate(seeds, 0.01, 2, 2)
    assert info.value.field == "seeds"


def test_generate_takes_numpy_integer_and_range_seeds():
    base = WienerPath.generate([5], 0.01, 3, 2)
    for seed in (np.int64(5), np.uint32(5)):
        assert np.array_equal(WienerPath.generate([seed], 0.01, 3, 2), base)
    paths = WienerPath.generate(range(4, 7), 0.01, 3, 2)
    assert paths.shape == (3, 2, 3)
    assert np.array_equal(paths[1], base[0])
    mixed = WienerPath.generate((np.int64(4), 5), 0.01, 3, 2)
    assert np.array_equal(mixed[1], base[0])


def test_increment_statistics():
    (inc,) = WienerPath.generate([1], 0.25, 4, 20000)
    assert abs(np.mean(inc)) < 0.005
    assert abs(np.var(inc) - 0.25) < 0.01
    corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    assert abs(corr) < 0.02


def _coupled_problem(n_steps, model=NoiseModel(family="linear", K=5)):
    return Problem(ConstitutiveParams(p=2.0), build_space(2, 4, suggest_grid(2, 4)), model,
                   None, np.array([1.0, 0.0, 0.0, 0.0]), SdeStepConfig(dt=0.1), n_steps)


def test_coarsen_aggregates_increments():
    # run_coupled's level of factor 3 steps at 3 dt on the sums of three
    # consecutive increments of the seed's path
    (path,) = WienerPath.generate([3], 0.1, 5, 12)
    (coarse,) = run_coupled(_coupled_problem(12), [3], [3])[0]
    assert coarse.n_steps == 4
    assert coarse.dt == 0.1 * 3
    assert np.array_equal(coarse.increments[0], path[:3].sum(axis=0))
    # total displacement preserved
    assert np.allclose(coarse.increments.sum(axis=0), path.sum(axis=0))


@pytest.mark.parametrize("factor", [0, -2, 2.5, True])
def test_coarsen_refuses_a_factor_that_is_not_a_positive_integer(factor, call_counter):
    # 0 used to divide by zero, -2 fail in a reshape and 2.5 in a slice;
    # the refusal comes before any draw
    draws = call_counter(WienerPath, "generate")
    with pytest.raises(ValueError, match="factor must be an integer >= 1"):
        run_coupled(_coupled_problem(12), [3], [factor])
    assert draws == {"generate": 0}


@pytest.mark.parametrize("n_steps, factor", [(10, 3), (4, 5)])
def test_coarsen_refuses_a_factor_that_does_not_divide_the_steps(n_steps, factor, call_counter):
    # 10 // 3 used to drop the last fine increment (the coarse path ended at
    # t = 0.9), and a factor above n_steps gave an empty path
    draws = call_counter(WienerPath, "generate")
    with pytest.raises(ValueError, match=f"factor {factor} does not divide"):
        run_coupled(_coupled_problem(n_steps), [1], [factor])
    assert draws == {"generate": 0}


def test_coarsen_by_one_keeps_the_path():
    # the level of factor 1 is the problem itself on the generated path
    problem = _coupled_problem(12)
    (same,) = run_coupled(problem, [3], [np.int64(1)])[0]
    assert (same.seed, same.problem) == (3, problem)
    assert np.array_equal(same.increments, WienerPath.generate([3], 0.1, 5, 12)[0])


@pytest.mark.parametrize("K, n_steps, field", [
    (2.5, 3, "K"), (0, 3, "K"), (True, 3, "K"), (2, 2.0, "n_steps"), (2, -1, "n_steps"),
    (2, True, "n_steps"),
])
def test_generate_refuses_sizes_that_are_not_counts(K, n_steps, field, monkeypatch):
    # K = 2.5 and n_steps = 2.0 ended in numpy's TypeError, n_steps = -1 in a
    # ValueError that named nothing, and K = 0 returned an empty path
    monkeypatch.setattr(noise, "_seed_states", None)  # any draw would fail
    with pytest.raises(FieldError, match=field) as info:
        WienerPath.generate([1], 0.01, K, n_steps)
    assert info.value.field == field


def test_generate_rejects_bad_dt():
    with pytest.raises(ValueError):
        WienerPath.generate([0], 0.0, 4, 10)


@pytest.mark.parametrize("dt", [-0.01, np.nan, np.inf])
def test_generate_refuses_a_dt_that_is_not_positive_and_finite(dt, monkeypatch):
    # a nan dt used to give nan increments; the refusal was a bare
    # ValueError, where K and n_steps already named themselves
    monkeypatch.setattr(noise, "_seed_states", None)  # any draw would fail
    with pytest.raises(FieldError, match="time step must be positive and finite") as info:
        WienerPath.generate([0], dt, 2, 2)
    assert info.value.field == "dt"


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
