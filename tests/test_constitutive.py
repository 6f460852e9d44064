import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from powerlaw_spde.constitutive import (
    ConstitutiveParams,
    coercivity_constant,
    eval_stabilizer,
    eval_stress,
    existence_threshold,
    growth_bounds_check,
    minimal_q,
    monotonicity_gap,
    stabilizer_potential,
    stress_potential,
)


def random_symmetric(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def test_newtonian_case_is_linear():
    params = ConstitutiveParams(p=2.0, nu0=3.0)
    eps = random_symmetric(np.random.default_rng(0), 50, 2)
    assert np.allclose(eval_stress(params, eps), 3.0 * eps, atol=1e-14)


def test_zero_strain_gives_zero_stress():
    for p in (1.2, 1.6, 2.0, 3.0):
        params = ConstitutiveParams(p=p)
        assert np.all(eval_stress(params, np.zeros((3, 3))) == 0.0)


def test_shear_thinning_scale_at_unit_strain():
    # (1 + 1)^(1.6 - 2) = 2^-0.4
    params = ConstitutiveParams(p=1.6, nu0=1.0)
    eps = np.array([[1.0 / np.sqrt(2.0), 0.0], [0.0, -1.0 / np.sqrt(2.0)]])
    s = eval_stress(params, eps)
    assert abs(np.linalg.norm(s) - 2.0 ** -0.4) < 1e-12
    assert abs(2.0 ** -0.4 - 0.7578582832551991) < 1e-15


def test_rejects_asymmetric_strain():
    params = ConstitutiveParams(p=1.6)
    with pytest.raises(ValueError):
        eval_stress(params, np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("check", [eval_stress, stress_potential, growth_bounds_check])
@pytest.mark.parametrize("d", [2, 3])
def test_strain_inputs_must_be_symmetric(check, d):
    params = ConstitutiveParams(p=1.6)
    eps = random_symmetric(np.random.default_rng(d), 8, d)
    check(params, eps)  # accepted
    eps[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="strain input must be symmetric"):
        check(params, eps)


@pytest.mark.parametrize("p", [1.2, 1.6, 2.0, 2.5, 3.0])
def test_potential_matches_quadrature(p):
    params = ConstitutiveParams(p=p, nu0=1.7)
    for t in (0.3, 1.0, 4.2):
        eps = np.diag([t / np.sqrt(2.0), -t / np.sqrt(2.0)])
        ref, _ = quad(lambda s: 1.7 * (1.0 + s) ** (p - 2.0) * s, 0.0, t)
        assert abs(stress_potential(params, eps) - ref) < 1e-10


@pytest.mark.parametrize("p", [1.4, 2.0, 2.7])
def test_stress_is_potential_gradient(p):
    # directional finite differences of F reproduce S
    params = ConstitutiveParams(p=p)
    rng = np.random.default_rng(1)
    eps = random_symmetric(rng, 1, 2)[0]
    direction = random_symmetric(rng, 1, 2)[0]
    h = 1e-6
    fd = (stress_potential(params, eps + h * direction)
          - stress_potential(params, eps - h * direction)) / (2.0 * h)
    exact = np.sum(eval_stress(params, eps) * direction)
    assert abs(fd - exact) < 1e-7 * (1.0 + abs(exact))


@pytest.mark.parametrize("p", [1.2, 1.6, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("d", [2, 3])
def test_monotonicity(p, d):
    params = ConstitutiveParams(p=p)
    rng = np.random.default_rng(42)
    e1 = random_symmetric(rng, 5000, d)
    e2 = random_symmetric(rng, 5000, d)
    assert np.min(monotonicity_gap(params, e1, e2)) >= -1e-12


@st.composite
def strain_pairs(draw):
    """(d, e1, e2): two symmetric d x d strains with entries up to 1e3."""
    d = draw(st.sampled_from([2, 3]))
    scale = draw(st.floats(1e-3, 1e3))
    a = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d,
                                       max_size=2 * d * d))).reshape(2, d, d)
    e = 0.5 * (a + np.swapaxes(a, -1, -2))
    return d, e[0], e[1]


@given(p=st.floats(1.0, 4.0, exclude_min=True), pair=strain_pairs())
def test_monotonicity_on_drawn_strains(p, pair):
    d, e1, e2 = pair
    gap = float(monotonicity_gap(ConstitutiveParams(p=p), e1, e2))
    size = 1.0 + np.linalg.norm(e1) + np.linalg.norm(e2)
    assert gap >= -1e-12 * size ** p


def test_newtonian_gap_identity():
    params = ConstitutiveParams(p=2.0, nu0=2.5)
    rng = np.random.default_rng(3)
    e1 = random_symmetric(rng, 500, 2)
    e2 = random_symmetric(rng, 500, 2)
    gap = monotonicity_gap(params, e1, e2)
    exact = 2.5 * np.sum((e1 - e2) ** 2, axis=(-2, -1))
    assert np.max(np.abs(gap - exact)) < 1e-10 * np.max(exact)


@pytest.mark.parametrize("p", [1.2, 1.6, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("d", [2, 3])
def test_growth_and_coercivity_bounds(p, d):
    params = ConstitutiveParams(p=p, nu0=1.3)
    rng = np.random.default_rng(8)
    eps = 10.0 * random_symmetric(rng, 5000, d)
    assert growth_bounds_check(params, eps)


def test_coercivity_constant_value():
    params = ConstitutiveParams(p=1.6, nu0=2.0)
    assert abs(coercivity_constant(params) - 2.0 * 2.0 ** -0.6) < 1e-14


def test_existence_threshold_values():
    assert abs(existence_threshold(2) - 1.5) < 1e-15
    assert abs(existence_threshold(3) - 1.6) < 1e-15


def test_minimal_q_values():
    assert abs(minimal_q(1.6) - 16.0 / 3.0) < 1e-14  # 2p' = 2*1.6/0.6
    assert abs(minimal_q(2.0) - 4.0) < 1e-15
    assert abs(minimal_q(10.0) - 3.0) < 1e-15        # 2p' < 3 branch


def test_params_validation():
    with pytest.raises(ValueError):
        ConstitutiveParams(p=1.0)
    with pytest.raises(ValueError):
        ConstitutiveParams(p=2.0, nu0=0.0)
    with pytest.raises(ValueError):
        ConstitutiveParams(p=2.0, alpha=-1.0)
    with pytest.raises(ValueError):
        ConstitutiveParams(p=1.6, alpha=0.5, q=3.0)  # q below 2p'


def test_q_autofill():
    params = ConstitutiveParams(p=1.6, alpha=0.1)
    assert abs(params.q - 16.0 / 3.0) < 1e-12


def test_stabilizer_cubic_example():
    params = ConstitutiveParams(p=2.0, q=4.0, alpha=1.0)
    out = eval_stabilizer(params, np.array([2.0, 0.0]))
    assert np.allclose(out, [8.0, 0.0], atol=1e-14)  # |v|^2 v


def test_stabilizer_zero_alpha_and_potential():
    params = ConstitutiveParams(p=2.0, q=4.0, alpha=0.0)
    assert np.all(eval_stabilizer(params, np.ones((7, 2))) == 0.0)
    params = ConstitutiveParams(p=2.0, q=4.0, alpha=0.8)
    v = np.array([3.0, 4.0])
    assert abs(stabilizer_potential(params, v) - 0.8 / 4.0 * 5.0 ** 4) < 1e-10


def test_stabilizer_is_potential_gradient():
    params = ConstitutiveParams(p=2.0, q=5.0, alpha=0.7)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3)
    direction = rng.standard_normal(3)
    h = 1e-6
    fd = (stabilizer_potential(params, v + h * direction)
          - stabilizer_potential(params, v - h * direction)) / (2.0 * h)
    exact = np.dot(eval_stabilizer(params, v), direction)
    assert abs(fd - exact) < 1e-7 * (1.0 + abs(exact))
