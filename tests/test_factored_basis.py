"""The factored basis (scalar profile times a constant tensor per mode)
against dense oracles sampled from the mode formula, amp cos/sin(xi . x) pol,
which shares no table with the transforms."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from powerlaw_spde.basis import (
    analyze,
    analyze_gradient,
    analyze_scalar,
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


def sampled_modes(space):
    """Every mode w_n = amp {cos|sin}(xi_n . x) pol_n and its gradient
    amp {-sin|cos}(xi_n . x) pol_n (x) xi_n, sampled from the formula on the
    grid points: shapes (N, M^d, d) and (N, M^d, d, d)."""
    amp = np.sqrt(2.0) / (2.0 * np.pi) ** (space.d / 2.0)
    xis = space.xis.astype(float)
    phase = xis @ space.points.T  # (N, M^d)
    is_cos = space.is_cos[:, None]
    val = np.where(is_cos, np.cos(phase), np.sin(phase))
    dval = np.where(is_cos, -np.sin(phase), np.cos(phase))
    fields = amp * val[:, :, None] * space.pols[:, None, :]
    grads = amp * dval[:, :, None, None] * (space.pols[:, :, None] * xis[:, None, :])[:, None]
    return fields, grads


def strain(grads):
    return 0.5 * (grads + np.swapaxes(grads, -1, -2))


def dense_hessian(params, space, coeffs, dt):
    """The Hessian of the implicit objective from the sampled modes."""
    fields, grads = sampled_modes(space)
    mode_strains = strain(grads)
    w = space.quad_weight * dt
    eps = np.einsum("n,nxij->xij", coeffs, mode_strains)
    mag = np.sqrt(np.sum(eps ** 2, axis=(-2, -1)))
    flat = mode_strains.reshape(space.N, len(eps), -1)
    c1 = params.nu0 * (1.0 + mag) ** (params.p - 2.0)
    hess = np.einsum("nxk,x,mxk->nm", flat, w * c1, flat)
    c2 = (params.p - 2.0) * params.nu0 * (1.0 + mag) ** (params.p - 3.0) / mag
    proj = np.einsum("nxij,xij->nx", mode_strains, eps)
    hess += (proj * (w * c2)) @ proj.T
    if params.alpha > 0.0:
        v = np.einsum("n,nxd->xd", coeffs, fields)
        vmag = np.linalg.norm(v, axis=-1)
        a1 = params.alpha * vmag ** (params.q - 2.0)
        hess += np.einsum("nxd,x,mxd->nm", fields, w * a1, fields)
        a2 = (params.q - 2.0) * params.alpha * vmag ** (params.q - 4.0)
        vproj = np.einsum("nxd,xd->nx", fields, v)
        hess += (vproj * (w * a2)) @ vproj.T
    return hess + np.eye(space.N)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25)
@given(n_modes=st.integers(1, 64), extra=st.integers(0, 6))
@example(n_modes=None, extra=None)
def test_unit_block_transforms_are_the_sampled_modes(d, n_modes, extra):
    # the transforms of np.eye(N), built from rows of the Fourier table,
    # against cos/sin of the full phase: on the module's space (the explicit
    # example) and on drawn spaces from the oversampling bound 2 kmax + 1 up
    if n_modes is None:
        space = make_space(d)
    else:
        kmax = int(np.abs(build_space(d, n_modes, suggest_grid(d, n_modes)).xis).max())
        space = build_space(d, n_modes, 2 * kmax + 1 + extra)
    fields, grads = sampled_modes(space)
    unit = np.eye(space.N)
    for got, want in ((synthesize(space, unit), fields),
                      (velocity_gradient(space, unit), grads),
                      (symmetric_gradient(space, unit), strain(grads))):
        assert np.allclose(np.moveaxis(got, 1, 0), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("transform", [synthesize, velocity_gradient])
def test_sampled_modes_see_a_swapped_profile_pair(transform):
    # the oracle has teeth: with the cos and sin rows of one wavevector
    # swapped in the table, the transforms are wrong and the formula says so
    space = make_space(2)
    profiles = space.profiles.copy()
    profiles[[2, 3]] = profiles[[3, 2]]
    broken = dataclasses.replace(space, profiles=profiles)
    fields, grads = sampled_modes(space)
    want = fields if transform is synthesize else grads
    assert np.allclose(np.moveaxis(transform(space, np.eye(space.N)), 1, 0), want,
                       rtol=0, atol=1e-13)
    error = np.max(np.abs(np.moveaxis(transform(broken, np.eye(space.N)), 1, 0) - want))
    assert error > 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_transforms_match_dense_oracle(d):
    space = make_space(d)
    fields, grads = sampled_modes(space)
    c = random_coeffs(space)
    assert_close(synthesize(space, c),
                 np.einsum("n,nxd->xd", c, fields))
    assert_close(velocity_gradient(space, c),
                 np.einsum("n,nxij->xij", c, grads))
    assert_close(symmetric_gradient(space, c),
                 np.einsum("n,nxij->xij", c, strain(grads)))
    fld = np.random.default_rng(1).standard_normal((space.M ** d, d))
    assert_close(analyze(space, fld),
                 space.quad_weight * np.einsum("xd,nxd->n", fld, fields))


def _in_layout(layout, a):
    """The values of samples a, shape (M^d, ...), C-ordered, as a
    component-major view (np.moveaxis of a (..., M^d) array) or as a strided
    slice of a wider array."""
    if layout == "c_order":
        return np.ascontiguousarray(a)
    if layout == "component_major":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1] + 1,))
    wide[..., 1::2] = a
    return wide[..., 1::2]


@settings(max_examples=40)
@given(d=st.sampled_from([2, 3]), n_modes=st.integers(1, 48), extra=st.integers(0, 3),
       batch=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
       layout=st.sampled_from(["c_order", "component_major", "strided"]))
# d=3, N=5: a half-filled polarization group, and the last wavevector keeps
# only a cos mode; d=3, N=6 and d=2, N=3: the last one keeps only its cos modes
@example(d=3, n_modes=5, extra=0, batch=2, seed=0, layout="c_order")
@example(d=3, n_modes=6, extra=1, batch=0, seed=1, layout="component_major")
@example(d=2, n_modes=3, extra=0, batch=3, seed=2, layout="strided")
# blocks of ensemble-em-2d's 64 rows (d=2, N=32) and pressure-2d's 8
@example(d=2, n_modes=32, extra=0, batch=64, seed=3, layout="component_major")
@example(d=3, n_modes=20, extra=0, batch=64, seed=4, layout="c_order")
@example(d=2, n_modes=32, extra=1, batch=8, seed=5, layout="c_order")
@example(d=3, n_modes=20, extra=1, batch=8, seed=6, layout="strided")
def test_every_transform_matches_dense_oracle_on_drawn_spaces(d, n_modes, extra, batch, seed,
                                                              layout):
    kmax = int(np.abs(build_space(d, n_modes, suggest_grid(d, n_modes)).xis).max())
    space = build_space(d, n_modes, 2 * kmax + 1 + extra)
    assert len(space.profiles) == 2 * len(np.unique(space.xis, axis=0))
    rng = np.random.default_rng(seed)
    lead = (batch,) if batch else ()
    c = rng.standard_normal(lead + (space.N,))
    vec = _in_layout(layout, rng.standard_normal((space.M ** d,) + lead + (d,)))
    tensor = _in_layout(layout, rng.standard_normal((space.M ** d,) + lead + (d, d)))
    w = space.quad_weight
    fields, grads = sampled_modes(space)
    eps = strain(grads)
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
    values = _in_layout(layout, np.concatenate([vec, tensor.reshape(tensor.shape[:-2] + (-1,))],
                                               axis=-1))
    fused = analyze_with_gradient(space, values)
    assert_close(fused, vec_want + grad_proj)
    forward = [(fn, fn(space, c)) for fn in (synthesize, velocity_gradient, symmetric_gradient)]
    adjoint = [(fn, samples, fn(space, samples)) for fn, samples in
               ((analyze, vec), (analyze_gradient, tensor), (analyze_with_gradient, values))]
    for row in range(batch):
        # every transform is one GEMM per row: a block's row is the row
        # alone, bit for bit
        v_row, g_row = synthesize_with_gradient(space, c[row])
        assert np.array_equal(v[:, row], v_row) and np.array_equal(g[:, row], g_row)
        for fn, block in forward:
            assert np.array_equal(block[:, row], fn(space, c[row])), fn.__name__
        for fn, samples, block in adjoint:
            assert np.array_equal(block[row], fn(space, samples[:, row])), fn.__name__


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("batch", [0, 3])
def test_samples_are_component_major(d, batch):
    # the forward transforms return (M^d, ..., k) views of a (..., k, M^d)
    # array: each component's samples are contiguous
    space = make_space(d)
    c = np.random.default_rng(batch).standard_normal(((batch,) if batch else ()) + (space.N,))
    v, grad = synthesize_with_gradient(space, c)
    for out in (synthesize(space, c), velocity_gradient(space, c), v, grad):
        assert out.strides[0] == out.itemsize
    assert np.moveaxis(synthesize(space, c), 0, -1).flags.c_contiguous


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.6, 2.5])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_forces_match_dense_oracle(d, p, alpha):
    space = make_space(d)
    params = ConstitutiveParams(p=p, alpha=alpha)
    c = random_coeffs(space, seed=2)
    w = space.quad_weight
    fields, grads = sampled_modes(space)
    mode_strains = strain(grads)
    eps = np.einsum("n,nxij->xij", c, mode_strains)
    v = np.einsum("n,nxd->xd", c, fields)
    assert_close(stress_force(space, eval_stress(params, symmetric_gradient(space, c))),
                 -w * np.einsum("xij,nxij->n", eval_stress(params, eps), mode_strains))
    if alpha > 0.0:
        assert_close(stabilizer_force(params, space, synthesize(space, c)),
                     -w * np.einsum("xd,nxd->n", eval_stabilizer(params, v), fields))
    tensor = v[:, :, None] * v[:, None, :]
    assert_close(convection_force(space, synthesize(space, c)),
                 w * np.einsum("xij,nxij->n", tensor, grads))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_diffusion_matches_dense_oracle(d, family):
    space = make_space(d)
    v = synthesize(space, random_coeffs(space, seed=3))
    model = NoiseModel(family=family, K=6)
    phi = apply_phi(model, space, v)
    want = space.quad_weight * np.einsum("lxd,nxd->nl", phi, sampled_modes(space)[0])
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
                                         sampled_modes(space)[0])
    got = assemble_diffusion(model, space, v)
    assert got.shape == want.shape
    # the additive fields are constant and project to round-off
    scale = max(float(np.max(np.abs(want))), amplitude * float(np.max(model.per_mode_scale)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=40)
@given(d=st.sampled_from([2, 3]), n_modes=st.integers(1, 40), rows=st.integers(1, 8),
       family=st.sampled_from(["additive", "smooth_norm"]), K=st.integers(1, 6),
       amplitude=st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 10.0), st.floats(-10.0, -0.1)),
       seed=st.integers(0, 2 ** 16))
# K below and above d, on pressure-2d's 8-row block
@example(d=2, n_modes=64, rows=8, family="smooth_norm", K=16, amplitude=2.5, seed=0)
@example(d=3, n_modes=20, rows=1, family="smooth_norm", K=2, amplitude=0.5, seed=1)
def test_profile_sigma_matches_the_K_field_oracle(d, n_modes, rows, family, K, amplitude, seed):
    # the additive and smooth_norm Sigma is amplitude a_k <s e_((k-1) mod d),
    # w_n> from one moment product of the profile s per row; the oracle
    # projects each of the K fields apply_phi forms
    space = build_space(d, n_modes, suggest_grid(d, n_modes))
    rng = np.random.default_rng(seed)
    v = synthesize(space, 2.0 * rng.standard_normal((rows, space.N)) / np.sqrt(space.N))
    model = NoiseModel(family=family, K=K, amplitude=amplitude)
    want = np.swapaxes(analyze(space, np.moveaxis(apply_phi(model, space, v), 0, -2)), -1, -2)
    got = assemble_diffusion(model, space, v)
    assert got.shape == want.shape == (rows, space.N, K)
    # a near-constant profile projects to round-off, so the bound scales
    # with the largest field a_1 |amplitude| as well
    scale = max(float(np.max(np.abs(want))), abs(amplitude) * model.per_mode_scale[0])
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    for row in range(rows):
        # one moment product per row: a block's row is the row alone
        assert np.array_equal(got[row], assemble_diffusion(model, space, v[:, row]))


@pytest.mark.parametrize("d", [2, 3])
def test_analyze_scalar_is_the_analyze_of_each_axis(d):
    space = make_space(d)
    scalar = np.random.default_rng(d).standard_normal((space.M ** d, 3))
    got = analyze_scalar(space, scalar)  # (3, d, N)
    for j in range(d):
        axis_field = np.zeros(scalar.shape + (d,))
        axis_field[..., j] = scalar
        assert_close(got[:, j], analyze(space, axis_field))
    assert np.array_equal(analyze_scalar(space, scalar[:, 1]), got[1])
    with pytest.raises(ValueError, match=r"not \(M\^d, \.\.\.\)"):
        analyze_scalar(space, scalar[1:])


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
@example(c=np.zeros(SIZES[2]), x=np.ones(SIZES[2]), y=np.full(SIZES[2], 5e-324),
         p=2.0, alpha=0.0, dt=1.0)  # unscaled, the bound underflowed to 0
def test_hessian_product_is_symmetric_and_at_least_identity(c, x, y, p, alpha, dt):
    # both assertions are homogeneous in x and y, so each nonzero vector is
    # scaled to a largest magnitude of 1 (not by its norm, whose square can
    # underflow), which keeps the round-off bounds above the subnormals
    x, y = (v / np.max(np.abs(v)) if np.any(v) else v for v in (x, y))
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
