"""Command-line entry point: simulate, ensemble, verify, pressure, report."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, pressure as pressure_mod, verify
from .config import ConfigError, SimulationConfig
from .galerkin import IntegratorError, run_trajectory

FLOAT_FMT = "%.17g"


def _load_config(args) -> SimulationConfig:
    cfg = SimulationConfig.load(args.config) if args.config else SimulationConfig()
    if getattr(args, "seed", None) is not None:
        # replace() re-runs the field validation
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _parse_grid(text: str, name: str, positive: bool) -> list[float]:
    """Comma-separated finite numbers, each > 0 (positive) or >= 0."""
    try:
        values = [float(entry) for entry in text.split(",")]
    except ValueError:
        values = [np.nan]
    if not all(np.isfinite(x) and (x > 0.0 if positive else x >= 0.0) for x in values):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(name, f"expects comma-separated finite numbers {bound}, got {text!r}")
    return values


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_json(path: Path, data, indent: int | None = 2) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=indent)
        fh.write("\n")


def _build(cfg: SimulationConfig) -> tuple:
    """(params, space, noise model, forcing, v0, step config) of a config."""
    space = cfg.build_space()
    return (cfg.build_params(), space, cfg.build_noise(), cfg.build_forcing(space),
            cfg.build_initial(space), cfg.build_step_config())


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traj = run_trajectory(*_build(cfg), cfg.n_steps, seed=cfg.seed)

    energy = traj.energy()
    rows = [(float(traj.times[0]), float(energy[0]), 0.0, 0.0, 0.0)]
    for n in range(traj.n_steps):
        rows.append((
            float(traj.times[n + 1]),
            float(energy[n + 1]),
            float(traj.dt * traj.grad_lp[n]),
            float(traj.dt * traj.stab_int[n]),
            float(traj.qv[n]),
        ))
    _write_csv(out / "trajectory.csv",
               ["t", "energy", "grad_lp_increment", "stab_increment", "noise_qv"],
               rows)
    _write_json(out / "coefficients.json", {
        "config": cfg.to_dict(),
        "times": [float(t) for t in traj.times],
        "coeffs": [[float(c) for c in row] for row in traj.coeffs],
    }, indent=None)
    cfg.dump(out / "config.json")
    return 0


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    if cfg.n_traj < 2:
        raise ConfigError("n_traj", "ensemble requires n_traj >= 2")
    if args.alpha_grid is not None and args.m_grid is not None:
        raise ConfigError("m_grid", "cannot be combined with --alpha-grid; run each study alone")
    if args.alpha_grid is not None:
        alphas = _parse_grid(args.alpha_grid, "alpha_grid", positive=False)
    if args.m_grid is not None:
        m_grid = _parse_grid(args.m_grid, "m_grid", positive=True)
        if len(m_grid) < 2:
            raise ConfigError("m_grid", "needs at least two values to compare")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, *run = _build(cfg)
    run += [cfg.n_steps, cfg.seed, cfg.n_traj]

    if args.alpha_grid is not None:
        rows = analysis.alpha_independence_study(
            lambda a: cfg.build_params(alpha=a), *run, alphas)
        _write_csv(out / "alpha_study.csv", ["alpha", "ratio", "mean_total", "se_total"],
                   [(r["alpha"], r["ratio"], r["mean_total"], r["se_total"]) for r in rows])
        _write_json(out / "alpha_study.json", rows)
        return 0

    if args.m_grid is not None:
        rows = analysis.stabilization_convergence(
            lambda m: cfg.build_params(alpha=1.0 / m), *run, m_grid)
        _write_json(out / "m_study.json", [{**r, "m_pair": list(r["m_pair"])} for r in rows])
        return 0

    report = analysis.ensemble_moments(params, *run, beta=cfg.beta)
    _write_json(out / "ensemble.json", report.as_dict())
    _write_csv(out / "ensemble.csv",
               ["trajectory", "sup_l2_sq", "grad_lp", "stab_lq", "interp_lr0", "total"],
               [(i, float(report.sup_l2_sq[i]), float(report.grad_lp[i]),
                 float(report.stab_lq[i]), float(report.interp_lr0[i]),
                 float(report.total[i])) for i in range(len(report.total))])
    return 0


def cmd_verify(args) -> int:
    try:
        report = verify.run_suite(args.suite)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from {verify.SUITES}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / f"verify_{args.suite}.json", "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def cmd_pressure(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, space, model, forcing, v0, step_cfg = _build(cfg)
    trajs, failures = analysis.run_ensemble(params, space, model, forcing, v0, step_cfg,
                                            cfg.n_steps, cfg.seed, cfg.n_traj)
    report = pressure_mod.estimate_check(space, params, model, forcing, trajs)
    report.update(analysis.failure_summary(failures))
    _write_json(out / "pressure.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    found = sorted(out.glob("*.json"))
    if not found:
        print(f"no reports under {out}", file=sys.stderr)
        return 1
    for path in found:
        with open(path) as fh:
            data = json.load(fh)
        status = ""
        if isinstance(data, dict) and "passed" in data:
            status = "PASS" if data["passed"] else "FAIL"
        print(f"{path.name}: {status}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlaw-spde",
        description="Spectral Galerkin simulation and verification for "
                    "stochastic power-law fluids on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name, help_text, func):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", type=str, required=True)
        cmd.set_defaults(func=func)
        return cmd

    run_command("simulate", "run one trajectory and write CSV/JSON", cmd_simulate)
    ens = run_command("ensemble", "run an ensemble and emit moment reports", cmd_ensemble)
    ens.add_argument("--alpha-grid", type=str, default=None)
    ens.add_argument("--m-grid", type=str, default=None)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", type=str, required=True)
    ver.add_argument("--out", type=str, default=None)
    ver.set_defaults(func=cmd_verify)

    run_command("pressure", "pressure decomposition diagnostics", cmd_pressure)

    rep = sub.add_parser("report", help="summarize report files in a directory")
    rep.add_argument("--out", type=str, required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (IntegratorError, analysis.EnsembleError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
