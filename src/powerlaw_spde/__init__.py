"""Spectral Galerkin simulation and verification for stochastic power-law
fluids on the periodic torus."""

from .basis import GalerkinSpace, analyze, build_space, suggest_grid, symmetric_gradient, synthesize
from .config import SimulationConfig
from .constitutive import ConstitutiveParams, eval_stabilizer, eval_stress, monotonicity_gap, stress_potential
from .galerkin import Problem, SdeStepConfig, Trajectory, run_trajectory, step
from .noise import NoiseModel, WienerPath, apply_phi
from .truncation import TruncationFamily

__all__ = [
    "GalerkinSpace", "analyze", "build_space", "suggest_grid",
    "symmetric_gradient", "synthesize",
    "SimulationConfig",
    "ConstitutiveParams", "eval_stabilizer", "eval_stress",
    "monotonicity_gap", "stress_potential",
    "Problem", "SdeStepConfig", "Trajectory", "run_trajectory", "step",
    "NoiseModel", "WienerPath", "apply_phi",
    "TruncationFamily",
]

__version__ = "0.1.0"
