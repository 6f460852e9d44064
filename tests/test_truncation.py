import numpy as np
import pytest
from scipy.integrate import quad

from powerlaw_spde.basis import build_space, suggest_grid, synthesize
from powerlaw_spde.truncation import (
    TruncationFamily,
    chain_rule_constant,
    eval_H_L,
    eval_h_L,
    eval_Psi_L,
    eval_Psi_L_prime,
    eval_psi,
    eval_psi_prime,
    gradient_bound_ratio,
)


def test_profile_plateau_and_support():
    assert eval_psi(0.5) == 1.0
    assert eval_psi(1.0) == 1.0
    assert eval_psi(2.0) == 0.0
    assert eval_psi(2.5) == 0.0
    assert abs(eval_psi(1.5) - 0.5) < 1e-15  # smoothstep midpoint


def test_profile_rejects_negative_argument():
    with pytest.raises(ValueError):
        eval_psi(-0.1)
    # L = 2.5 used to end in a TypeError at the first eval_Psi_L, and L =
    # True ran one level
    for L in (-1, 2.5, True):
        with pytest.raises(ValueError, match="L: the level count must be an integer >= 0"):
            TruncationFamily(L=L)


def test_family_takes_a_numpy_integer_level_count():
    s = np.linspace(0.0, 10.0, 11)
    assert np.array_equal(eval_Psi_L(TruncationFamily(L=np.int64(2)), s),
                          eval_Psi_L(TruncationFamily(L=2), s))


def test_profile_derivative_bound():
    s = np.linspace(0.0, 3.0, 30001)
    dpsi = eval_psi_prime(s)
    assert np.all(dpsi <= 0.0)
    assert np.max(-dpsi) <= 15.0 / 8.0 + 1e-12
    # quintic smoothstep: extreme slope attained at the midpoint
    assert abs(-eval_psi_prime(np.array([1.5]))[0] - 15.0 / 8.0) < 1e-12


def test_profile_derivative_matches_finite_differences():
    s = np.linspace(1.05, 1.95, 19)
    h = 1e-6
    fd = (eval_psi(s + h) - eval_psi(s - h)) / (2.0 * h)
    assert np.max(np.abs(fd - eval_psi_prime(s))) < 1e-8


@pytest.mark.parametrize("L", [1, 2, 3, 5, 10])
def test_Psi_L_plateau_and_support(L):
    fam = TruncationFamily(L=L)
    s = np.linspace(0.0, 2.0, 201)
    assert np.max(np.abs(eval_Psi_L(fam, s) - L)) == 0.0
    beyond = np.linspace(2.0 ** (L + 1), 2.0 ** (L + 2), 50)
    assert np.max(np.abs(eval_Psi_L(fam, beyond))) == 0.0


def test_Psi_L_explicit_sum_value():
    fam = TruncationFamily(L=3)
    s = 5.0
    expect = sum(float(eval_psi(s / 2.0 ** level)) for level in (1, 2, 3))
    assert abs(float(eval_Psi_L(fam, s)) - expect) < 1e-14
    # at s = 5 only the level-2 summand is in transition
    assert abs(expect - (1.0 + float(eval_psi(1.25)))) < 1e-14


def test_Psi_L_monotone_in_L():
    s = np.linspace(0.0, 40.0, 500)
    prev = np.zeros_like(s)
    for L in range(1, 7):
        cur = eval_Psi_L(TruncationFamily(L=L), s)
        assert np.all(cur >= prev - 1e-14)
        prev = cur


def test_h_L_quadratic_on_plateau():
    # Psi_L = L on [0, 2] so h_L(s) = L s^2 / 2 there
    for L in (1, 2, 4):
        fam = TruncationFamily(L=L)
        for s in (0.5, 1.0, 1.5):
            assert abs(float(eval_h_L(fam, s)) - L * s ** 2 / 2.0) < 1e-13


@pytest.mark.parametrize("L", [1, 2, 3])
def test_h_L_matches_quadrature(L):
    fam = TruncationFamily(L=L)
    for s in (0.7, 3.0, 6.5, 20.0):
        ref, _ = quad(lambda u: float(eval_Psi_L(fam, u)) * u, 0.0, s, limit=200)
        assert abs(float(eval_h_L(fam, s)) - ref) < 1e-6 * (1.0 + abs(ref))


def test_h_L_convex_second_difference():
    fam = TruncationFamily(L=2)
    s = np.linspace(0.1, 10.0, 200)
    h = 1e-4
    second = (eval_h_L(fam, s + h) - 2.0 * eval_h_L(fam, s)
              + eval_h_L(fam, s - h)) / h ** 2
    # h_L'' = Psi_L + s Psi_L' >= Psi_L - 4 can dip, but on the plateau it is L
    plateau = s <= 1.9
    assert np.max(np.abs(second[plateau] - 2.0)) < 1e-4


def test_H_L_is_radial():
    fam = TruncationFamily(L=2)
    xi = np.array([[3.0, 0.0], [0.0, 3.0], [3.0 / np.sqrt(2.0), 3.0 / np.sqrt(2.0)]])
    vals = eval_H_L(fam, xi)
    assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_chain_rule_constant_bound():
    c = chain_rule_constant()
    assert c <= 15.0 / 4.0 + 1e-9
    assert c >= 15.0 / 8.0  # at least the slope bound at scale one
    # uniform in L: s Psi_L'(s) has at most one active annulus
    for L in (1, 4, 8):
        fam = TruncationFamily(L=L)
        s = np.linspace(1e-6, 2.0 ** (L + 1), 50000)
        assert np.max(np.abs(s * eval_Psi_L_prime(fam, s))) <= c + 1e-6


def test_gradient_bound_ratio_zero_on_plateau():
    space = build_space(2, 4, suggest_grid(2, 4))
    fam = TruncationFamily(L=3)
    c = np.zeros(4)
    c[0] = 0.1  # peak amplitude well below the first transition annulus
    assert gradient_bound_ratio(fam, space, c) == 0.0


def test_gradient_bound_ratio_uniform_in_L():
    space = build_space(2, 8, suggest_grid(2, 8))
    rng = np.random.default_rng(2)
    fields = []
    for _ in range(3):
        c = rng.standard_normal(8)
        peak = np.max(np.linalg.norm(synthesize(space, c), axis=-1))
        fields.extend(c / peak * 2.0 ** j for j in range(1, 9))
    ratios = []
    for L in range(1, 11):
        fam = TruncationFamily(L=L)
        ratios.append(max(gradient_bound_ratio(fam, space, c) for c in fields))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread < 0.05
    assert max(ratios) <= 4.0
