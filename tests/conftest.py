import numpy as np
import pytest

from powerlaw_spde.basis import symmetric_gradient, synthesize
from powerlaw_spde.galerkin import assemble_diffusion, step


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
    step_index=0): galerkin.step from C = coeffs with the left-point fields
    evaluated here; noise is a (model, path) pair or None."""
    def run(params, space, coeffs, cfg, forcing=None, noise=None, step_index=0):
        coeffs = np.asarray(coeffs, dtype=float)
        v = synthesize(space, coeffs)
        noise_part = np.zeros(space.N)
        if noise is not None:
            model, path = noise
            noise_part = assemble_diffusion(model, space, v) @ path.increments[step_index]
        return step(params, space, forcing, coeffs, cfg, step_index, v,
                    symmetric_gradient(space, coeffs), noise_part)

    return run
