"""Run configuration: a flat, versioned key-value document (JSON on disk).

SimulationConfig validates every field on construction (ConfigError names
the field) and build_problem materializes the galerkin.Problem of a run.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict, field
from typing import Any

import numpy as np

from .basis import GalerkinSpace, build_space, suggest_grid, synthesize
from .constitutive import ConstitutiveParams, minimal_q
from .galerkin import SCHEMES, Problem, SdeStepConfig
from .noise import FAMILIES, NoiseModel

SCHEMA_VERSION = 1

# Bytes allowed for the largest array of a run: the basis table (R, M^d)
# of R <= N + 1 cos/sin rows, bounded as (N, M^d), the
# coefficient history (n_traj, n_steps + 1, N) or, with noise, the Brownian
# increments (n_traj, n_steps, K).  A larger run exits 2 before it allocates.
MAX_ARRAY_BYTES = 2 ** 31

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
            alpha = 1.0 / self.m
            if not math.isfinite(alpha):
                raise ConfigError("m", f"alpha = 1/m overflows for m={self.m!r}")
            # a dumped config holds both, with alpha = 1/m
            if self.alpha not in (0.0, alpha):
                raise ConfigError("m", f"sets alpha = 1/m = {alpha!r}, but alpha = "
                                       f"{self.alpha!r} is given too; give one of them")
            self.alpha = alpha
        if self.alpha < 0.0:
            raise ConfigError("alpha", "stabilization weight must be nonnegative")
        if self.q is None:
            self.q = minimal_q(self.p)
        elif self.alpha > 0.0 and self.q < minimal_q(self.p) - 1e-12:
            raise ConfigError("q", f"must be at least max(2p', 3) = {minimal_q(self.p)}")
        if self.N < 1:
            raise ConfigError("N", "need at least one mode")
        # N modes need (2 kmax + 1)^d >= N/(d-1) + 1 grid points: bound the
        # tables before the modes are enumerated
        self._check_size("N", "(R, M^d) basis table", self.N * (self.N // (self.d - 1) + 1))
        grid_field = "N" if self.M is None else "M"
        if self.M is None:
            self.M = suggest_grid(self.d, self.N)
        self._check_size(grid_field, "(R, M^d) basis table", self.N * self.M ** self.d)
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
        if self.scheme not in SCHEMES:
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
        if self.initial == "single_mode" and list(self.initial_coeffs) != [1.0]:
            raise ConfigError("initial_coeffs", "is ignored by initial 'single_mode' (v0 = "
                                                f"initial_scale e_1), got {self.initial_coeffs!r}")
        if self.n_traj < 1:
            raise ConfigError("n_traj", "need at least one trajectory")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")
        if self.beta is not None and self.beta <= 0.0:
            raise ConfigError("beta", f"moment exponent must be positive, got {self.beta!r}")
        self._check_size("T_end", "(n_traj, n_steps + 1, N) coefficient history",
                         self.n_traj * (self.n_steps + 1) * self.N)
        if self.noise_family is not None:
            self._check_size("K", "(n_traj, n_steps, K) Brownian increments",
                             self.n_traj * self.n_steps * self.K)

    @staticmethod
    def _check_size(fld: str, array: str, entries: int) -> None:
        if 8 * entries > MAX_ARRAY_BYTES:
            raise ConfigError(fld, f"the {array} would exceed the "
                                   f"{MAX_ARRAY_BYTES >> 30} GiB array budget")

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
        if not isinstance(data, dict):
            raise ConfigError("config", f"must be a JSON object, got {data!r:.40}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "SimulationConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON
            raise ConfigError("config", f"cannot load {path}: {exc}") from None
        return cls.from_dict(data)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- materialization ---------------------------------------------------

    def build_problem(self) -> Problem:
        """The run this config describes, from the build_* parts below."""
        space = self.build_space()
        return Problem(self.build_params(), space, self.build_noise(), self.build_forcing(space),
                       self.build_initial(space), self.build_step_config(), self.n_steps)

    def build_params(self) -> ConstitutiveParams:
        return ConstitutiveParams(p=self.p, nu0=self.nu0, q=self.q, alpha=self.alpha)

    def build_space(self) -> GalerkinSpace:
        # d and N are validated, so the grid bound on M is the one check left
        try:
            return build_space(self.d, self.N, self.M)
        except ValueError as exc:
            raise ConfigError("M", str(exc)) from None

    def build_noise(self) -> NoiseModel | None:
        if self.noise_family is None:
            return None
        return NoiseModel(family=self.noise_family, K=self.K, amplitude=self.noise_amplitude)

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
