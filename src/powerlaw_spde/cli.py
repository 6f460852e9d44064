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
from .constitutive import minimal_q
from .galerkin import IntegratorError, run_trajectory

FLOAT_FMT = "%.17g"


class OutputDirError(Exception):
    """--out names a path that cannot be made a directory (exit 2)."""


def _load_config(args, unread=(), reads_q=False) -> SimulationConfig:
    """The run config; a setting in unread, which the command never reads,
    keeps its default, and so does q without the stabilizer (alpha = 0)
    unless reads_q: a grid study sets alpha itself."""
    cfg = SimulationConfig.load(args.config) if args.config else SimulationConfig()
    if getattr(args, "seed", None) is not None:
        # replace() re-runs the field validation
        cfg = dataclasses.replace(cfg, seed=args.seed)
    cfg.refuse_unread(f"the {args.command} command", *unread)
    if not reads_q and cfg.alpha == 0.0 and cfg.q != minimal_q(cfg.p):
        raise ConfigError("q", f"is not read by the {args.command} command with alpha = 0 "
                               f"(its default is max(2p', 3) = {minimal_q(cfg.p)!r})")
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


def _output_dir(path: str) -> Path:
    """The --out directory, created after validation and before any run."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"--out {path!r}: cannot create the directory ({exc.strerror})") from None
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_json(path: Path, data, indent: int | None = 2) -> None:
    # json.dumps, unlike json.dump, takes the C encoder when indent is None
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=indent) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(args, unread=("n_traj", "beta"))
    problem = cfg.build_problem()
    out = _output_dir(args.out)
    traj = run_trajectory(problem, seed=cfg.seed)

    energy = traj.energy()
    rows = [(float(traj.times[0]), float(energy[0]), 0.0, 0.0, 0.0)] + [
        (float(t), float(e), float(traj.dt * g), float(traj.dt * s), float(q))
        for t, e, g, s, q in zip(traj.times[1:], energy[1:], traj.grad_lp, traj.stab_int, traj.qv)]
    _write_csv(out / "trajectory.csv",
               ["t", "energy", "grad_lp_increment", "stab_increment", "noise_qv"],
               rows)
    _write_json(out / "coefficients.json", {
        "config": cfg.to_dict(),
        "times": traj.times.tolist(),
        "coeffs": traj.coeffs.tolist(),
    }, indent=None)
    cfg.dump(out / "config.json")
    return 0


def cmd_ensemble(args) -> int:
    # a study reports no moments
    studies = args.alpha_grid is not None or args.m_grid is not None
    cfg = _load_config(args, unread=("beta",) if studies else (), reads_q=studies)
    if cfg.n_traj < 2:
        raise ConfigError("n_traj", "ensemble requires n_traj >= 2")
    if args.alpha_grid is not None and args.m_grid is not None:
        raise ConfigError("m_grid", "cannot be combined with --alpha-grid; run each study alone")
    # every grid point is validated (q against alpha) before the first run
    if args.alpha_grid is not None:
        alphas = _parse_grid(args.alpha_grid, "alpha_grid", positive=False)
        for alpha in alphas:
            dataclasses.replace(cfg, alpha=alpha)
    if args.m_grid is not None:
        m_grid = _parse_grid(args.m_grid, "m_grid", positive=True)
        if len(m_grid) < 2:
            raise ConfigError("m_grid", "needs at least two values to compare")
        for m in m_grid:
            # the weight alpha = 1/m that analysis.stabilization_convergence runs
            if not np.isfinite(1.0 / m):
                raise ConfigError("m_grid", f"alpha = 1/m overflows for m = {m!r}")
            dataclasses.replace(cfg, alpha=1.0 / m)
    problem = cfg.build_problem()
    out = _output_dir(args.out)

    if args.alpha_grid is not None:
        rows = analysis.alpha_independence_study(problem, cfg.seed, cfg.n_traj, alphas)
        _write_csv(out / "alpha_study.csv", ["alpha", "ratio", "mean_total", "se_total"],
                   [(r["alpha"], r["ratio"], r["mean_total"], r["se_total"]) for r in rows])
        _write_json(out / "alpha_study.json", rows)
        return 0

    if args.m_grid is not None:
        rows = analysis.stabilization_convergence(problem, cfg.seed, cfg.n_traj, m_grid)
        _write_json(out / "m_study.json", [{**r, "m_pair": list(r["m_pair"])} for r in rows])
        return 0

    report = analysis.ensemble_moments(problem, cfg.seed, cfg.n_traj, beta=cfg.beta)
    _write_json(out / "ensemble.json", report.as_dict())
    _write_csv(out / "ensemble.csv",
               ["trajectory", "sup_l2_sq", "grad_lp", "stab_lq", "interp_lr0", "total"],
               [(i, float(report.sup_l2_sq[i]), float(report.grad_lp[i]),
                 float(report.stab_lq[i]), float(report.interp_lr0[i]),
                 float(report.total[i])) for i in range(len(report.total))])
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(verify.SUITES)}",
              file=sys.stderr)
        return 2
    out = _output_dir(args.out) if args.out else None
    report = verify.run_suite(args.suite)
    if out is not None:
        _write_json(out / f"verify_{args.suite}.json", report)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def cmd_pressure(args) -> int:
    cfg = _load_config(args, unread=("beta",))
    problem = cfg.build_problem()
    out = _output_dir(args.out)
    trajs, failures = analysis.run_ensemble(problem, cfg.seed, cfg.n_traj)
    report = pressure_mod.estimate_check(trajs)
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
    code = 0
    for path in found:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON
            print(f"{path.name}: unreadable ({exc})")
            code = 1
            continue
        status = ""
        if isinstance(data, dict) and "passed" in data:
            status = "PASS" if data["passed"] else "FAIL"
        print(f"{path.name}: {status}")
    return code


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
    except (ConfigError, OutputDirError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (IntegratorError, analysis.EnsembleError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
