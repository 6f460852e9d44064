import numpy as np
import pytest
from hypothesis import settings

from powerlaw_spde.galerkin import Problem, step

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
    step_index=0): galerkin.step from C = coeffs as a batch of one of the
    Problem of these parts; noise is a (model, path) pair or None.  Raises
    the row's IntegratorError if its step failed."""
    def run(params, space, coeffs, cfg, forcing=None, noise=None, step_index=0):
        model, increments = None, None
        if noise is not None:
            model, path = noise
            increments = path.increments[step_index][None]
        problem = Problem(params, space, model, forcing, coeffs, cfg, step_index + 1)
        new, _, errors, _ = step(problem, problem.v0[None], step_index, increments)
        if errors:
            raise errors[0]
        return new[0]

    return run
