"""The benchmark's workloads: the generated config, how to read the outputs,
and which spans each workload must call.

Every workload drives one user-facing command of the ``powerlaw-spde`` CLI.
The benchmark seed becomes the config's ``seed`` (the Wiener seed, and the
base seed of an ensemble) and the command's ``--seed``; all other inputs are
fixed, so every seed does the same amount of work.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance of the comparison with perfbench/reference.json: loose
# enough for FFT or batched round-off and the Newton tolerance (1e-10),
# tight enough that a wrong term or sign fails.
RTOL = 1e-8

# A pressure part is normalized to zero spatial mean.
MAX_ABS_MEAN = 1e-12


def _ensemble_outputs(out: Path):
    data = json.loads((out / "ensemble.json").read_text())
    values = {k: v for k, v in data.items()
              if isinstance(v, (int, float)) and not isinstance(v, bool)}
    problems = ["partial ensemble"] if data.get("partial") else []
    return values, len(data.get("failed_trajectories", [])), problems


def _simulate_outputs(out: Path):
    data = json.loads((out / "coefficients.json").read_text())
    return {"final_coeffs": data["coeffs"][-1]}, 0, []


def _pressure_outputs(out: Path):
    data = json.loads((out / "pressure.json").read_text())
    values = {k: v for k, v in data.items() if k != "max_abs_mean"}
    problems = []
    if not abs(data["max_abs_mean"]) <= MAX_ABS_MEAN:
        problems.append(f"max_abs_mean {data['max_abs_mean']!r} > {MAX_ABS_MEAN}")
    return values, 0, problems


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    # out dir -> (output values, failed trajectories, invariant violations)
    outputs: Callable[[Path], tuple[dict, int, list[str]]]
    called: tuple[str, ...]  # spans that must record calls in a traced run
    moves: tuple[str, ...]   # per-layer metrics expected to move step_ms here
    unchanged: tuple[str, ...]  # per-layer metrics expected not to move it here

    def make_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    @property
    def trajectories(self) -> int:
        return self.config.get("n_traj", 1)

    @property
    def steps(self) -> int:
        return max(1, round(self.config["T_end"] / self.config["dt"]))


# Every workload starts from the same 16 excited modes, so convection, the
# stress nonlinearity and the noise all shape the outputs that are checked.
# (From one or two low modes, linear noise keeps the state in their span,
# where convection vanishes and a wrong convection term would go unseen.)
_INITIAL = [(-1) ** k / k for k in range(1, 17)]

_CORE = ("basis.synthesize", "basis.gradient", "basis.build_space",
         "constitutive.eval_stress", "noise.apply_phi", "noise.wiener_generate",
         "galerkin.step", "galerkin.stress_force", "galerkin.convection_force",
         "galerkin.assemble_diffusion", "galerkin.run_trajectory", "config.build")
_PRESSURE = ("pressure.fft", "pressure.assemble_H", "pressure.decompose",
             "pressure.estimate_check")

WORKLOADS = {
    # Many tiny transforms: per-call Python overhead of apply_phi, two
    # diffusion assemblies per step, per-step RNG and the CLI's own runner
    # loop. Batching shows here; 0.2 MB of tables and no Newton step, so
    # FFT and Newton-CG changes should not move it.
    "ensemble-em-2d": Workload(
        command="ensemble",
        config={"d": 2, "N": 32, "M": 10, "p": 1.8, "noise_family": "linear",
                "K": 16, "scheme": "euler_maruyama", "dt": 0.01, "T_end": 0.2,
                "initial_coeffs": _INITIAL, "n_traj": 64},
        outputs=_ensemble_outputs,
        called=_CORE + ("analysis.report",),
        moves=("noise.apply_phi.self_ms", "galerkin.assemble_diffusion.self_ms",
               "galerkin.run_trajectory.self_ms", "galerkin.step.self_ms",
               "constitutive.eval_stress.self_ms", "noise.wiener_generate.self_ms",
               "cli.self_ms"),
        unchanged=("galerkin.newton_iters_per_step",
                   "constitutive.stress_potential.self_ms",
                   "pressure.fft.self_ms", "pressure.decompose.self_ms",
                   "basis.table_mb"),
    ),
    # The dense semi-implicit Newton step dominates (the N x N Hessian and
    # its solve), on 25 MB of dense tables plus mode_eps. One trajectory,
    # so batching is bypassed; FFT transforms and Newton-CG show here.
    "simulate-si-3d": Workload(
        command="simulate",
        config={"d": 3, "N": 256, "M": 10, "p": 1.6, "alpha": 0.1,
                "noise_family": "linear", "K": 16, "scheme": "semi_implicit",
                "dt": 0.01, "T_end": 0.05, "initial_coeffs": _INITIAL},
        outputs=_simulate_outputs,
        called=_CORE + ("constitutive.stress_potential", "constitutive.stabilizer"),
        moves=("galerkin.step.self_ms", "galerkin.newton_iters_per_step",
               "basis.synthesize.self_ms", "basis.gradient.self_ms",
               "constitutive.eval_stress.self_ms",
               "constitutive.stress_potential.self_ms",
               "constitutive.stabilizer.self_ms", "basis.table_mb",
               "basis.build_space.self_ms"),
        unchanged=("pressure.fft.self_ms", "pressure.decompose.self_ms",
                   "analysis.run_ensemble.self_ms", "cli.self_ms"),
    ),
    # Replays recorded trajectories through the pressure decomposition: six
    # FFT helpers and the smooth_norm apply_phi, a second noise family. A
    # shortcut only for the linear family, or a transform change that costs
    # the pressure path, shows here.
    "pressure-2d": Workload(
        command="pressure",
        config={"d": 2, "N": 64, "M": 13, "p": 2.0, "alpha": 0.1,
                "forcing": "steady_mode", "noise_family": "smooth_norm", "K": 16,
                "scheme": "euler_maruyama", "dt": 0.01, "T_end": 0.2,
                "initial_coeffs": _INITIAL, "n_traj": 8},
        outputs=_pressure_outputs,
        called=_CORE + _PRESSURE + ("basis.analyze", "constitutive.stabilizer",
                                    "analysis.run_ensemble"),
        moves=("pressure.fft.self_ms", "pressure.assemble_H.self_ms",
               "pressure.decompose.self_ms", "pressure.estimate_check.self_ms",
               "noise.apply_phi.self_ms", "basis.synthesize.self_ms",
               "basis.gradient.self_ms"),
        unchanged=("galerkin.newton_iters_per_step",
                   "constitutive.stress_potential.self_ms", "cli.self_ms"),
    ),
}
