import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powerlaw_spde.config import _REALS, ConfigError, SimulationConfig
from powerlaw_spde.basis import build_space, suggest_grid
from powerlaw_spde.constitutive import ConstitutiveParams
from powerlaw_spde.galerkin import SdeStepConfig
from powerlaw_spde.noise import NoiseModel


def test_defaults_are_valid():
    cfg = SimulationConfig()
    assert cfg.version == 1
    assert cfg.M == suggest_grid(cfg.d, cfg.N)
    assert cfg.q == 4.0  # minimal q for p = 2
    assert cfg.n_steps == 10


def test_field_validation_messages():
    with pytest.raises(ConfigError) as err:
        SimulationConfig(p=0.9)
    assert err.value.field == "p"
    assert "p" in str(err.value)
    for kwargs, fld in [
        ({"d": 4}, "d"),
        ({"nu0": -1.0}, "nu0"),
        ({"alpha": -0.5}, "alpha"),
        ({"N": 0}, "N"),
        ({"K": 0}, "K"),
        ({"K": 3}, "K"),  # no noise_family reads it
        ({"dt": 0.0}, "dt"),
        ({"T_end": -1.0}, "T_end"),
        ({"T_end": 0.1, "dt": 0.03}, "T_end"),  # used to stop at t = 0.09
        ({"T_end": 0.005, "dt": 0.01}, "T_end"),
        ({"seed": -1}, "seed"),
        ({"scheme": "rk4"}, "scheme"),
        ({"noise_family": "white"}, "noise_family"),
        ({"noise_family": "additive"}, "noise_family"),  # Sigma = 0 on the basis
        ({"forcing": "ramp"}, "forcing"),
        # settings that the chosen family or forcing never reads used to be
        # silent no-ops
        ({"noise_amplitude": 7.0, "noise_family": "linear"}, "noise_amplitude"),
        ({"noise_amplitude": 0.5}, "noise_amplitude"),  # no noise at all
        ({"forcing_scale": 9.0}, "forcing_scale"),
        ({"forcing_mode_index": 3}, "forcing_mode_index"),
        ({"n_traj": 0}, "n_traj"),
        ({"forcing_mode_index": 0}, "forcing_mode_index"),
        ({"N": 4, "forcing_mode_index": 5}, "forcing_mode_index"),
        ({"version": 2}, "version"),
        ({"N": "4"}, "N"),
        ({"N": 4.0}, "N"),
        ({"d": True}, "d"),
        ({"p": "2"}, "p"),
        ({"nu0": float("nan")}, "nu0"),
        ({"dt": float("inf")}, "dt"),
        ({"p": 10 ** 400}, "p"),  # overflows a double
        ({"beta": float("nan")}, "beta"),
        ({"beta": 0.0}, "beta"),
        ({"beta": -1e308}, "beta"),  # used to report a moment of 0.0
        ({"scheme": 1}, "scheme"),
        ({"initial_coeffs": [1.0, float("nan")]}, "initial_coeffs"),
        ({"initial_coeffs": ["1"]}, "initial_coeffs"),
        ({"initial_coeffs": 1.0}, "initial_coeffs"),
    ]:
        with pytest.raises(ConfigError) as err:
            SimulationConfig(**kwargs)
        assert err.value.field == fld


@pytest.mark.parametrize("build, kwargs, fld", [
    (build_space, {"d": 4, "N": 4, "M": 9}, "d"),
    (build_space, {"d": 2, "N": 0, "M": 9}, "N"),
    (build_space, {"d": 2, "N": 12, "M": 4}, "M"),
    (ConstitutiveParams, {"p": 1.0}, "p"),
    (ConstitutiveParams, {"p": 2.0, "nu0": 0.0}, "nu0"),
    (ConstitutiveParams, {"p": 2.0, "alpha": -0.1}, "alpha"),
    (ConstitutiveParams, {"p": 2.0, "alpha": 0.1, "q": 3.5}, "q"),
    (NoiseModel, {"family": "white"}, "family"),
    (NoiseModel, {"family": "linear", "K": 0}, "K"),
    (SdeStepConfig, {"dt": 0.0}, "dt"),
    (SdeStepConfig, {"dt": 0.01, "scheme": "rk4"}, "scheme"),
    (ConstitutiveParams, {"p": 1e308}, "p"),  # 2p/(p-1), the default q, overflows
])
def test_domain_refusal_names_its_field(build, kwargs, fld):
    # each rule lives with the type that reads the value; the config only
    # renames the field where it spells it differently
    with pytest.raises(ValueError) as err:
        build(**kwargs)
    assert getattr(err.value, "field", None) == fld


def test_grid_below_oversampling_bound_names_m():
    # the bound depends on the retained modes, so build_space checks it
    cfg = SimulationConfig(N=12, M=4)
    with pytest.raises(ConfigError) as err:
        cfg.build_space()
    assert err.value.field == "M"
    assert "M=4 below oversampling bound 5" in str(err.value)


def test_q_validation_with_stabilizer():
    with pytest.raises(ConfigError):
        SimulationConfig(p=1.6, alpha=0.5, q=4.0)  # below 2p' = 16/3
    cfg = SimulationConfig(p=1.6, alpha=0.5)
    assert abs(cfg.q - 16.0 / 3.0) < 1e-12


def test_round_trip_dict():
    cfg = SimulationConfig(p=1.8, N=8, dt=0.005, noise_family="linear", seed=3)
    again = SimulationConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        SimulationConfig.from_dict({"velocity": 1.0})
    assert err.value.field == "velocity"


def test_load_dump_round_trip(tmp_path):
    cfg = SimulationConfig(p=2.5, N=8, noise_family="smooth_norm", n_traj=4)
    path = tmp_path / "config.json"
    cfg.dump(path)
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["version"] == 1
    assert SimulationConfig.load(path) == cfg


def test_builders():
    cfg = SimulationConfig(p=1.8, N=8, noise_family="linear", K=8,
                           forcing="steady_mode", forcing_mode_index=2,
                           forcing_scale=0.5,
                           initial_coeffs=[1.0, 0.0, 0.25])
    params = cfg.build_params()
    assert params.p == 1.8
    space = cfg.build_space()
    assert space.N == 8 and space.d == 2
    model = cfg.build_noise()
    assert model.family == "linear" and model.K == 8
    forcing = cfg.build_forcing(space)
    f_coeffs = np.zeros(8)
    f_coeffs[1] = 0.5
    from powerlaw_spde.basis import analyze
    assert np.allclose(analyze(space, forcing), f_coeffs, atol=1e-12)
    assert SimulationConfig().build_forcing(space) is None
    v0 = cfg.build_initial(space)
    assert np.allclose(v0, [1.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0])
    step_cfg = cfg.build_step_config()
    assert step_cfg.dt == cfg.dt and step_cfg.scheme == "euler_maruyama"


def test_build_noise_none_when_unset():
    assert SimulationConfig().build_noise() is None


def test_initial_coeffs_overflow():
    cfg = SimulationConfig(N=2, initial_coeffs=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        cfg.build_initial(cfg.build_space())


def test_build_problem_holds_the_built_parts():
    cfg = SimulationConfig(p=1.8, alpha=0.5, N=8, noise_family="smooth_norm", K=8,
                           noise_amplitude=0.5, forcing="steady_mode",
                           initial_coeffs=[0.5, -1.0], T_end=0.05)
    problem = cfg.build_problem()
    assert problem.params == cfg.build_params()
    assert (problem.space.d, problem.space.N, problem.space.M) == (2, 8, cfg.M)
    assert (problem.model.family, problem.model.K, problem.model.amplitude) == ("smooth_norm", 8, 0.5)
    assert np.array_equal(problem.forcing, cfg.build_forcing(problem.space))
    assert np.array_equal(problem.v0, cfg.build_initial(problem.space))
    assert problem.cfg == cfg.build_step_config()
    assert problem.n_steps == 5


_JSON_SCALAR = (st.none() | st.booleans() | st.integers(-10, 64) | st.integers()
                | st.floats() | st.text(max_size=8))
_JSON = st.recursive(_JSON_SCALAR, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_KEYS = st.sampled_from(sorted(SimulationConfig.__dataclass_fields__)) | st.text(max_size=6)


@settings(max_examples=300)
@given(data=st.dictionaries(_KEYS, _JSON, max_size=8) | _JSON)
@example(data={"p": 1e308})  # used to give q = inf
def test_any_json_dict_gives_a_valid_config_or_config_error(data):
    try:
        cfg = SimulationConfig.from_dict(data)
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cfg, name)) for name in _REALS
               if getattr(cfg, name) is not None)
    assert SimulationConfig.from_dict(cfg.to_dict()) == cfg
