"""Run configuration: a flat, versioned key-value document (JSON on disk)."""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict, field
from typing import Any

import numpy as np

from .basis import GalerkinSpace, build_space, suggest_grid, synthesize
from .constitutive import ConstitutiveParams, minimal_q
from .galerkin import SdeStepConfig
from .noise import FAMILIES, NoiseModel

SCHEMA_VERSION = 1

# Typed fields; a field whose default is None may also be None.
_INTEGERS = ("version", "d", "N", "M", "K", "forcing_mode_index", "seed", "n_traj")
_REALS = ("p", "nu0", "q", "alpha", "m", "dt", "T_end", "noise_amplitude",
          "forcing_scale", "initial_scale", "beta")
_STRINGS = ("scheme", "noise_family", "forcing", "initial")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A JSON number that converts to a finite double."""
    if _is_integer(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


class ConfigError(ValueError):
    """Configuration validation failure with a field-level message."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"config field '{fld}': {message}")
        self.field = fld


@dataclass
class SimulationConfig:
    version: int = SCHEMA_VERSION
    d: int = 2
    p: float = 2.0
    nu0: float = 1.0
    q: float | None = None
    alpha: float = 0.0
    m: float | None = None       # alternative to alpha: alpha = 1/m
    N: int = 4
    M: int | None = None         # defaults to the cubic oversampling bound
    K: int = 16
    dt: float = 1e-2
    T_end: float = 0.1
    scheme: str = "euler_maruyama"
    noise_family: str | None = None
    noise_amplitude: float = 1.0
    forcing: str = "zero"        # zero | steady_mode
    forcing_mode_index: int = 1
    forcing_scale: float = 1.0
    initial: str = "coeffs"      # coeffs | single_mode
    initial_coeffs: list[float] = field(default_factory=lambda: [1.0])
    initial_scale: float = 1.0
    seed: int = 0
    n_traj: int = 1
    beta: float | None = None

    def __post_init__(self):
        self._check_types()
        if self.version != SCHEMA_VERSION:
            raise ConfigError("version", f"unsupported schema version {self.version}")
        if self.d not in (2, 3):
            raise ConfigError("d", "dimension must be 2 or 3")
        if self.p <= 1.0:
            raise ConfigError("p", f"growth exponent must satisfy p > 1, got {self.p}")
        if self.nu0 <= 0.0:
            raise ConfigError("nu0", "viscosity must be positive")
        if self.m is not None:
            if self.m <= 0:
                raise ConfigError("m", "stabilization index must be positive")
            self.alpha = 1.0 / self.m
        if self.alpha < 0.0:
            raise ConfigError("alpha", "stabilization weight must be nonnegative")
        if self.q is None:
            self.q = minimal_q(self.p)
        elif self.alpha > 0.0 and self.q < minimal_q(self.p) - 1e-12:
            raise ConfigError("q", f"must be at least max(2p', 3) = {minimal_q(self.p)}")
        if self.N < 1:
            raise ConfigError("N", "need at least one mode")
        if self.M is None:
            self.M = suggest_grid(self.d, self.N)
        if self.K < 1:
            raise ConfigError("K", "need at least one Wiener mode")
        if self.dt <= 0.0:
            raise ConfigError("dt", "time step must be positive")
        if self.T_end <= 0.0:
            raise ConfigError("T_end", "final time must be positive")
        steps = self.T_end / self.dt
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError("T_end", f"must be a whole multiple of dt={self.dt}, "
                                       f"got T_end/dt = {steps!r}")
        if self.scheme not in ("euler_maruyama", "semi_implicit"):
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}")
        if self.noise_family is not None and self.noise_family not in FAMILIES:
            raise ConfigError("noise_family", f"unknown family {self.noise_family!r}")
        if self.noise_family == "additive":
            # its constant fields project to zero on the mean-free basis
            raise ConfigError("noise_family", "'additive' noise is zero on the mean-free "
                                              "Galerkin space (Sigma = 0); use 'linear' or "
                                              "'smooth_norm', or null for no noise")
        if self.forcing not in ("zero", "steady_mode"):
            raise ConfigError("forcing", f"unknown forcing {self.forcing!r}")
        if not 1 <= self.forcing_mode_index <= self.N:
            raise ConfigError("forcing_mode_index",
                              f"must be a mode index in 1..N={self.N}, got {self.forcing_mode_index}")
        if self.initial not in ("coeffs", "single_mode"):
            raise ConfigError("initial", f"unknown initial data {self.initial!r}")
        if self.n_traj < 1:
            raise ConfigError("n_traj", "need at least one trajectory")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")

    def _check_types(self) -> None:
        for names, ok, kind in ((_INTEGERS, _is_integer, "an integer"),
                                (_REALS, _is_finite_real, "a finite number"),
                                (_STRINGS, lambda v: isinstance(v, str), "a string")):
            for name in names:
                value = getattr(self, name)
                optional = self.__dataclass_fields__[name].default is None
                if not ok(value) and not (value is None and optional):
                    raise ConfigError(name, f"must be {kind}, got {value!r}")
        coeffs = self.initial_coeffs
        if not isinstance(coeffs, (list, tuple)) or not all(map(_is_finite_real, coeffs)):
            raise ConfigError("initial_coeffs", f"must be a list of finite numbers, got {coeffs!r}")

    @property
    def n_steps(self) -> int:
        return round(self.T_end / self.dt)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimulationConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "SimulationConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- materialization ---------------------------------------------------

    def build_params(self, alpha: float | None = None) -> ConstitutiveParams:
        return ConstitutiveParams(
            p=self.p, nu0=self.nu0, q=self.q,
            alpha=self.alpha if alpha is None else alpha, d=self.d,
        )

    def build_space(self) -> GalerkinSpace:
        # d and N are validated, so the grid bound on M is the one check left
        try:
            return build_space(self.d, self.N, self.M)
        except ValueError as exc:
            raise ConfigError("M", str(exc)) from None

    def build_noise(self) -> NoiseModel | None:
        if self.noise_family is None:
            return None
        return NoiseModel(family=self.noise_family, K=self.K, d=self.d,
                          amplitude=self.noise_amplitude)

    def build_forcing(self, space: GalerkinSpace) -> np.ndarray | None:
        """The sampled steady body force (M^d, d), or None for zero forcing."""
        if self.forcing == "zero":
            return None
        coeffs = np.zeros(space.N)
        coeffs[self.forcing_mode_index - 1] = self.forcing_scale
        return synthesize(space, coeffs)

    def build_initial(self, space: GalerkinSpace) -> np.ndarray:
        v0 = np.zeros(space.N)
        if self.initial == "single_mode":
            v0[0] = self.initial_scale
        else:
            given = np.asarray(self.initial_coeffs, dtype=float)
            if given.size > space.N:
                raise ConfigError("initial_coeffs", f"more than N={space.N} entries")
            v0[: given.size] = self.initial_scale * given
        return v0

    def build_step_config(self) -> SdeStepConfig:
        return SdeStepConfig(dt=self.dt, scheme=self.scheme)
