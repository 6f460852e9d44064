import numpy as np
import pytest
from hypothesis import settings

from powerlaw_spde.basis import symmetric_gradient, synthesize
from powerlaw_spde.constitutive import eval_stress
from powerlaw_spde.galerkin import assemble_diffusion, forcing_term, step

# Property tests run whole simulations, whose first example also pays for
# imports and table builds: no per-example deadline.
settings.register_profile("powerlaw-spde", deadline=None)
settings.load_profile("powerlaw-spde")


@pytest.fixture
def call_counter(monkeypatch):
    """count(module, *names) replaces each module attribute by a counting
    wrapper and returns the dict of call counts."""

    def count(module, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return count


@pytest.fixture
def advance():
    """advance(params, space, coeffs, cfg, forcing=None, noise=None,
    step_index=0): galerkin.step from C = coeffs as a batch of one, with the
    left-point fields evaluated here; noise is a (model, path) pair or None.
    Raises the row's IntegratorError if its step failed."""
    def run(params, space, coeffs, cfg, forcing=None, noise=None, step_index=0):
        block = np.asarray(coeffs, dtype=float)[None]
        v = synthesize(space, block)
        noise_part = np.zeros_like(block)
        if noise is not None:
            model, path = noise
            noise_part = assemble_diffusion(model, space, v) @ path.increments[step_index]
        stress = eval_stress(params, symmetric_gradient(space, block))
        new, errors = step(params, space, forcing_term(space, forcing), block, cfg,
                           step_index, v, stress, noise_part)
        if errors:
            raise errors[0]
        return new[0]

    return run
