import functools
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerlaw_spde import basis
from powerlaw_spde.basis import (
    _enumerate_modes,
    _polarizations,
    analyze,
    build_space,
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
    assert space.eigenvalues[0] == 1.0
    assert tuple(space.xis[0]) in ((1, 0), (0, 1))


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


@given(d=st.sampled_from([2, 3]), N=st.integers(1, 300))
def test_enumerated_modes_are_canonical_with_unit_orthogonal_polarizations(d, N):
    xis, is_cos, pols = _enumerate_modes(d, N)
    assert xis.shape == pols.shape == (N, d) and is_cos.shape == (N,)
    # one representative per {xi, -xi}: nonzero, first nonzero entry positive
    first = xis[np.arange(N), np.argmax(xis != 0, axis=1)]
    assert np.all(first > 0)
    assert np.all(np.abs(np.sum(pols ** 2, axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(np.sum(pols * xis, axis=1)) <= 1e-12)


def _is_canonical(xi):
    for c in xi:
        if c != 0:
            return c > 0
    return False


def enumerate_modes_by_search(d, count):
    """The plain-Python ball search and tuple sort that _enumerate_modes
    replaced, kept as its oracle."""
    n_pol = d - 1
    radius = 1
    while True:
        vecs = [vec for vec in itertools.product(range(-radius, radius + 1), repeat=d)
                if _is_canonical(vec) and sum(c * c for c in vec) <= radius * radius]
        if 2 * n_pol * len(vecs) >= count:
            break
        radius += 1
    keys = sorted((sum(c * c for c in vec), vec, parity, i)
                  for vec in vecs for parity in ("cos", "sin") for i in range(n_pol))[:count]
    pols = {vec: _polarizations(vec) for vec in dict.fromkeys(key[1] for key in keys)}
    return (np.array([vec for _, vec, _, _ in keys]),
            np.array([parity == "cos" for _, _, parity, _ in keys]),
            np.array([pols[vec][i] for _, vec, _, i in keys]))


@lru_cache(maxsize=None)
def searched_2048(d):
    return enumerate_modes_by_search(d, 2048)


@pytest.mark.parametrize("d", [2, 3])
def test_enumeration_equals_the_ball_search_for_every_N_up_to_2048(d, monkeypatch):
    # the search keeps the globally first modes, so each N's oracle is the
    # prefix of N = 2048's; the prefix rule itself is checked below.  The
    # polarizations of a wavevector are memoized, so each is computed once.
    want = searched_2048(d)
    monkeypatch.setattr(basis, "_polarizations", functools.cache(_polarizations))
    for N in range(1, 2049):
        for got, expected in zip(_enumerate_modes(d, N), want):
            assert np.array_equal(got, expected[:N]), N


@settings(max_examples=30)
@given(d=st.sampled_from([2, 3]), N=st.integers(1, 2048))
def test_ball_search_keeps_a_prefix(d, N):
    for got, expected in zip(enumerate_modes_by_search(d, N), searched_2048(d)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected[:N])


@pytest.mark.parametrize("d", [2, 3])
def test_orthonormality(d):
    N = 16 if d == 2 else 12
    space = build_space(d, N, suggest_grid(d, N))
    fields = synthesize(space, np.eye(N))
    gram = space.quad_weight * np.einsum("xnd,xmd->nm", fields, fields)
    assert np.max(np.abs(gram - np.eye(N))) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_modes_divergence_free_against_test_functions(d):
    N = 8
    space = build_space(d, N, suggest_grid(d, N))
    # int div(w_k) phi dx = -int w_k . grad(phi) dx for random smooth phi
    fields = synthesize(space, np.eye(N))
    rng = np.random.default_rng(0)
    for _ in range(4):
        xi = rng.integers(-2, 3, size=d).astype(float)
        phase = space.points @ xi
        grad_phi = -np.sin(phase)[:, None] * xi[None, :]
        vals = space.quad_weight * np.einsum("xnd,xd->n", fields, grad_phi)
        assert np.max(np.abs(vals)) < 1e-10


def test_synthesize_zero_and_unit():
    space = build_space(2, 6, suggest_grid(2, 6))
    zero = synthesize(space, np.zeros(6))
    assert np.all(zero == 0.0)
    one = synthesize(space, np.eye(6)[0])
    assert abs(space.quad_weight * np.sum(one ** 2) - 1.0) < 1e-10


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


@lru_cache(maxsize=None)
def small_space(d, N):
    return build_space(d, N, suggest_grid(d, N))


@st.composite
def drawn_coefficients(draw):
    """(space, c): d in {2, 3}, N <= 16 modes on suggest_grid(d, N), and
    coefficients of magnitude up to 1e3."""
    d, N = draw(st.sampled_from([2, 3])), draw(st.integers(1, 16))
    scale = draw(st.floats(1e-3, 1e3))
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N))
    return small_space(d, N), scale * np.array(c)


@given(drawn=drawn_coefficients())
def test_round_trip_identity_on_drawn_coefficients(drawn):
    space, c = drawn
    err = np.max(np.abs(analyze(space, synthesize(space, c)) - c))
    assert err <= 1e-12 * max(1.0, float(np.max(np.abs(c))))


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
                for n in range(space.N):
                    xi = space.xis[n].astype(float)
                    amp = np.sqrt(2.0) / (2.0 * np.pi)
                    f = np.cos(xs @ xi) if space.is_cos[n] else np.sin(xs @ xi)
                    v += c[n] * amp * f * space.pols[n]
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
