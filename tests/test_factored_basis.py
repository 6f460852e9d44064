"""The factored basis (scalar profile times a constant tensor per mode)
against dense-table oracles built from mode_fields / mode_grads / mode_eps."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from powerlaw_spde.basis import (
    analyze,
    analyze_gradient,
    analyze_with_gradient,
    build_space,
    suggest_grid,
    symmetric_gradient,
    symmetric_part,
    synthesize,
    synthesize_with_gradient,
    velocity_gradient,
)
from powerlaw_spde.constitutive import ConstitutiveParams, eval_stabilizer, eval_stress
from powerlaw_spde import galerkin
from powerlaw_spde.galerkin import (
    _implicit_fields,
    _implicit_gradient,
    _implicit_hessian_product,
    assemble_diffusion,
    convection_force,
    stabilizer_force,
    stress_force,
)
from powerlaw_spde.noise import FAMILIES, NoiseModel, apply_phi

RTOL = 1e-12
SIZES = {2: 24, 3: 20}  # N per dimension; d=3 pairs share profiles


def make_space(d):
    N = SIZES[d]
    return build_space(d, N, suggest_grid(d, N))


def random_coeffs(space, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(space.N) / np.sqrt(space.N)


def norm(a):
    """Euclidean norm without the underflow of np.linalg.norm, which squares
    entries near 1e-244 to zero."""
    return math.hypot(*a)


def assert_close(got, want):
    scale = float(np.max(np.abs(want)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * scale


def dense_hessian(params, space, coeffs, dt):
    """The Hessian of the implicit objective from the dense tables."""
    w = space.quad_weight * dt
    eps = np.einsum("n,nxij->xij", coeffs, space.mode_eps)
    mag = np.sqrt(np.sum(eps ** 2, axis=(-2, -1)))
    flat = space.mode_eps.reshape(space.N, len(eps), -1)
    c1 = params.nu0 * (1.0 + mag) ** (params.p - 2.0)
    hess = np.einsum("nxk,x,mxk->nm", flat, w * c1, flat)
    c2 = (params.p - 2.0) * params.nu0 * (1.0 + mag) ** (params.p - 3.0) / mag
    proj = np.einsum("nxij,xij->nx", space.mode_eps, eps)
    hess += (proj * (w * c2)) @ proj.T
    if params.alpha > 0.0:
        v = np.einsum("n,nxd->xd", coeffs, space.mode_fields)
        vmag = np.linalg.norm(v, axis=-1)
        a1 = params.alpha * vmag ** (params.q - 2.0)
        hess += np.einsum("nxd,x,mxd->nm", space.mode_fields, w * a1, space.mode_fields)
        a2 = (params.q - 2.0) * params.alpha * vmag ** (params.q - 4.0)
        vproj = np.einsum("nxd,xd->nx", space.mode_fields, v)
        hess += (vproj * (w * a2)) @ vproj.T
    return hess + np.eye(space.N)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25)
@given(n_modes=st.integers(1, 64), extra=st.integers(0, 6))
@example(n_modes=None, extra=None)
def test_dense_views_are_the_sampled_modes(d, n_modes, extra):
    # the profiles, built from rows of the Fourier table, against cos/sin of
    # the full phase: on the module's space (the explicit example) and on
    # drawn spaces from the oversampling bound 2 kmax + 1 up
    if n_modes is None:
        space = make_space(d)
    else:
        kmax = int(np.abs(build_space(d, n_modes, suggest_grid(d, n_modes)).xis).max())
        space = build_space(d, n_modes, 2 * kmax + 1 + extra)
    amp = np.sqrt(2.0) / (2.0 * np.pi) ** (d / 2.0)
    for n in range(space.N):
        xi, pol = space.xis[n].astype(float), space.pols[n]
        phase = space.points @ xi
        val, dval = ((np.cos(phase), -np.sin(phase)) if space.is_cos[n]
                     else (np.sin(phase), np.cos(phase)))
        grad = amp * dval[:, None, None] * np.outer(pol, xi)
        assert np.allclose(space.mode_fields[n], amp * val[:, None] * pol, rtol=0, atol=1e-13)
        assert np.allclose(space.mode_grads[n], grad, rtol=0, atol=1e-13)
        assert np.allclose(space.mode_eps[n], 0.5 * (grad + np.swapaxes(grad, -1, -2)),
                           rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_transforms_match_dense_oracle(d):
    space = make_space(d)
    c = random_coeffs(space)
    assert_close(synthesize(space, c),
                 np.einsum("n,nxd->xd", c, space.mode_fields))
    assert_close(velocity_gradient(space, c),
                 np.einsum("n,nxij->xij", c, space.mode_grads))
    assert_close(symmetric_gradient(space, c),
                 np.einsum("n,nxij->xij", c, space.mode_eps))
    fld = np.random.default_rng(1).standard_normal((space.M ** d, d))
    assert_close(analyze(space, fld),
                 space.quad_weight * np.einsum("xd,nxd->n", fld, space.mode_fields))


@settings(max_examples=40)
@given(d=st.sampled_from([2, 3]), n_modes=st.integers(1, 48), extra=st.integers(0, 3),
       batch=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
# d=3, N=5: a half-filled polarization group, and the last wavevector keeps
# only a cos mode; d=3, N=6 and d=2, N=3: the last one keeps only its cos modes
@example(d=3, n_modes=5, extra=0, batch=2, seed=0)
@example(d=3, n_modes=6, extra=1, batch=0, seed=1)
@example(d=2, n_modes=3, extra=0, batch=3, seed=2)
def test_every_transform_matches_dense_oracle_on_drawn_spaces(d, n_modes, extra, batch, seed):
    kmax = int(np.abs(build_space(d, n_modes, suggest_grid(d, n_modes)).xis).max())
    space = build_space(d, n_modes, 2 * kmax + 1 + extra)
    assert len(space.profiles) == 2 * len(np.unique(space.xis, axis=0))
    rng = np.random.default_rng(seed)
    lead = (batch,) if batch else ()
    c = rng.standard_normal(lead + (space.N,))
    vec = rng.standard_normal((space.M ** d,) + lead + (d,))
    tensor = rng.standard_normal((space.M ** d,) + lead + (d, d))
    w = space.quad_weight
    fields, grads, eps = space.mode_fields, space.mode_grads, space.mode_eps
    v_want = np.einsum("...n,nxd->x...d", c, fields)
    grad_want = np.einsum("...n,nxij->x...ij", c, grads)
    assert_close(synthesize(space, c), v_want)
    assert_close(velocity_gradient(space, c), grad_want)
    assert_close(symmetric_gradient(space, c), np.einsum("...n,nxij->x...ij", c, eps))
    # every strain is formed by symmetric_part: eps(v) is the symmetric part
    # of grad v bit for bit, for a single row (batch 0) and for a block
    assert np.array_equal(symmetric_gradient(space, c),
                          symmetric_part(velocity_gradient(space, c)))
    vec_want = w * np.einsum("x...d,nxd->...n", vec, fields)
    grad_proj = w * np.einsum("x...ij,nxij->...n", tensor, grads)
    assert_close(analyze(space, vec), vec_want)
    assert_close(analyze_gradient(space, tensor), grad_proj)
    # on a symmetric tensor the projection onto grad w_k is the one onto
    # eps(w_k), which no transform forms
    sym = symmetric_part(tensor)
    assert_close(analyze_gradient(space, sym), w * np.einsum("x...ij,nxij->...n", sym, eps))
    v, g = synthesize_with_gradient(space, c)
    assert_close(v, v_want)
    assert_close(g, grad_want)
    values = np.concatenate([vec, tensor.reshape(tensor.shape[:-2] + (-1,))], axis=-1)
    fused = analyze_with_gradient(space, values)
    assert_close(fused, vec_want + grad_proj)
    for row in range(batch):
        # a block's row is the row alone, bit for bit
        v_row, g_row = synthesize_with_gradient(space, c[row])
        assert np.array_equal(v[:, row], v_row) and np.array_equal(g[:, row], g_row)
        assert np.array_equal(fused[row], analyze_with_gradient(space, values[:, row]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.6, 2.5])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_forces_match_dense_oracle(d, p, alpha):
    space = make_space(d)
    params = ConstitutiveParams(p=p, alpha=alpha)
    c = random_coeffs(space, seed=2)
    w = space.quad_weight
    eps = np.einsum("n,nxij->xij", c, space.mode_eps)
    v = np.einsum("n,nxd->xd", c, space.mode_fields)
    assert_close(stress_force(space, eval_stress(params, symmetric_gradient(space, c))),
                 -w * np.einsum("xij,nxij->n", eval_stress(params, eps), space.mode_eps))
    if alpha > 0.0:
        assert_close(stabilizer_force(params, space, synthesize(space, c)),
                     -w * np.einsum("xd,nxd->n", eval_stabilizer(params, v), space.mode_fields))
    tensor = v[:, :, None] * v[:, None, :]
    assert_close(convection_force(space, synthesize(space, c)),
                 w * np.einsum("xij,nxij->n", tensor, space.mode_grads))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_diffusion_matches_dense_oracle(d, family):
    space = make_space(d)
    v = synthesize(space, random_coeffs(space, seed=3))
    model = NoiseModel(family=family, K=6)
    phi = apply_phi(model, space, v)
    want = space.quad_weight * np.einsum("lxd,nxd->nl", phi, space.mode_fields)
    got = assemble_diffusion(model, space, v)
    if family == "additive":
        # constant fields project to zero on the mean-free modes
        assert np.max(np.abs(got)) < 1e-12 and np.max(np.abs(want)) < 1e-12
    else:
        assert_close(got, want)


@settings(max_examples=40)
@given(d=st.sampled_from([2, 3]), family=st.sampled_from(FAMILIES), K=st.integers(1, 8),
       amplitude=st.floats(0.1, 10.0), batch=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_diffusion_through_generators_matches_mode_fields(d, family, K, amplitude, batch, seed):
    # Sigma from the r generator projections against the K-field oracle, for
    # one sampled field (batch 0) and for a batch of rows
    space = make_space(d)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((batch, space.N) if batch else space.N)
    v = synthesize(space, coeffs / np.sqrt(space.N))
    model = NoiseModel(family=family, K=K, amplitude=amplitude)
    want = space.quad_weight * np.einsum("kx...d,nxd->...nk", apply_phi(model, space, v),
                                         space.mode_fields)
    got = assemble_diffusion(model, space, v)
    assert got.shape == want.shape
    # the additive fields are constant and project to round-off
    scale = max(float(np.max(np.abs(want))), amplitude * float(np.max(model.per_mode_scale)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def hessian_product(params, space, coeffs, dt):
    return _implicit_hessian_product(params, space, dt, _implicit_fields(params, space, coeffs))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.6, 2.5])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_hessian_matches_dense_oracle(d, p, alpha):
    space = make_space(d)
    params = ConstitutiveParams(p=p, alpha=alpha)
    c = random_coeffs(space, seed=4)
    dt = 0.3
    product = hessian_product(params, space, c, dt)
    hess = dense_hessian(params, space, c, dt)
    for seed in (7, 8):
        x = random_coeffs(space, seed)
        assert_close(product(x), hess @ x)
    assert_close(np.stack([product(e) for e in np.eye(space.N)], axis=1), hess)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.6, 2.5])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_hessian_is_jacobian_of_gradient(d, p, alpha):
    space = make_space(d)
    params = ConstitutiveParams(p=p, alpha=alpha)
    c = random_coeffs(space, seed=5)
    rhs = random_coeffs(space, seed=6)
    dt, h = 0.3, 1e-6

    def gradient(coeffs):
        fields = _implicit_fields(params, space, coeffs)
        return _implicit_gradient(params, space, coeffs, rhs, dt, fields)

    product = hessian_product(params, space, c, dt)
    hess = np.stack([product(e) for e in np.eye(space.N)], axis=1)
    jac = np.empty_like(hess)
    for j, e in enumerate(h * np.eye(space.N)):
        jac[:, j] = (gradient(c + e) - gradient(c - e)) / (2.0 * h)
    # compare the parts beyond the identity of 0.5|C - rhs|^2
    curvature = np.max(np.abs(hess - np.eye(space.N)))
    assert curvature > 1e-3
    assert np.max(np.abs(jac - hess)) <= 1e-6 * curvature


_VECTOR = hnp.arrays(float, SIZES[2], elements=st.floats(-10.0, 10.0))


@settings(max_examples=40)
@given(c=_VECTOR, x=_VECTOR, y=_VECTOR, p=st.floats(1.1, 4.0),
       alpha=st.sampled_from([0.0, 0.1, 2.0]), dt=st.floats(1e-3, 10.0))
def test_hessian_product_is_symmetric_and_at_least_identity(c, x, y, p, alpha, dt):
    space = make_space(2)
    params = ConstitutiveParams(p=p, alpha=alpha)
    product = hessian_product(params, space, c, dt)
    hx, hy = product(x), product(y)
    scale = norm(x) * norm(hy) + norm(y) * norm(hx)
    assert abs(x @ hy - y @ hx) <= 1e-12 * scale
    assert x @ hx >= x @ x - 1e-12 * norm(x) * norm(hx)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_semi_implicit_step_calls_stress_force_once_per_newton_iterate(call_counter, advance, alpha):
    # the Hessian products stay out of stress_force: the gradient of each
    # Newton iterate is its only caller (the benchmark counts iterates so)
    space = make_space(3)
    params = ConstitutiveParams(p=1.6, alpha=alpha)
    counts = call_counter(galerkin, "stress_force", "_newton_direction",
                          "_implicit_hessian_product")
    advance(params, space, random_coeffs(space),
            galerkin.SdeStepConfig(dt=0.3, scheme="semi_implicit"))
    iterates = counts["_newton_direction"] + 1  # the last one passes the residual test
    assert counts["_newton_direction"] >= 2
    assert counts["_implicit_hessian_product"] == counts["_newton_direction"]
    assert counts["stress_force"] == iterates
