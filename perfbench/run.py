"""Benchmark of the powerlaw-spde command-line interface.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout. A run invokes the
workload's command once as a warm-up, in process through
``powerlaw_spde.cli.main``; then, for ``--seconds``, it alternates a set-up
timed alone with a timed invocation. Every invocation's outputs must be
bit-identical to the warm-up's, and the warm-up's must match
``reference.json`` for the seed (or, for a seed without one, pass the
workload's invariants).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced repeats and reports the
per-layer metrics. The last line of standard output is the result object;
the line before it holds the samples, the thread settings and the machine.
The exit code is 0 when every output was correct.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import RTOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Single-threaded BLAS and OpenMP: a steady baseline on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 5


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("POWERLAW_SPDE_THREADS", None)


def import_package():
    """Import powerlaw_spde from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import powerlaw_spde
    if Path(powerlaw_spde.__file__).resolve().parent != src / "powerlaw_spde":
        raise ImportError(f"powerlaw_spde imported from {powerlaw_spde.__file__}, "
                          f"not from {src}")
    from powerlaw_spde import cli, config
    return cli, config


def machine_info(np) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


def repeat(fn, seconds: float, min_count: int) -> None:
    """Call fn at least min_count times and until seconds have passed."""
    start = time.perf_counter()
    count = 0
    while count < min_count or time.perf_counter() - start < seconds:
        fn()
        count += 1


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Bench:
    """One workload at one seed: runs the command and checks its outputs."""

    def __init__(self, name: str, seed: int, work: Path, cli, config, np):
        self.workload = WORKLOADS[name]
        self.cli, self.config, self.np = cli, config, np
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.workload.make_config(seed)))
        self.out = work / "out"
        self.argv = [self.workload.command, "--config", str(self.config_path),
                     "--seed", str(seed), "--out", str(self.out)]
        references = json.loads((HERE / "reference.json").read_text())["workloads"]
        self.reference = references.get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = None
        self._warmup_failed = 0

    def setup(self):
        """Config parse, tables (with the lazy mode_eps), noise, forcing and
        initial data: the work every command does before its first step.
        Returns (seconds, table MB)."""
        start = time.perf_counter()
        cfg = self.config.SimulationConfig.load(self.config_path)
        cfg.build_params()
        space = cfg.build_space()
        space.mode_eps  # lazy table, built by the first stress evaluation
        cfg.build_noise()
        cfg.build_forcing(space)
        cfg.build_initial(space)
        cfg.build_step_config()
        elapsed = time.perf_counter() - start
        tables = sum(v.nbytes for v in vars(space).values()
                     if isinstance(v, self.np.ndarray))
        return elapsed, tables / 2 ** 20

    def invoke(self, call=None) -> float:
        """Run the command once; return its wall time in seconds."""
        call = call or (lambda fn, *args: fn(*args))
        shutil.rmtree(self.out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = call(self.cli.main, self.argv)
            except Exception:
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += self.workload.trajectories
        self.failed += self._check(code, sink.getvalue())
        return elapsed

    def _check(self, code, log: str) -> int:
        """Failed trajectories of one invocation."""
        if code != 0:
            self.problems.append(f"exit {code!r}: {log[-500:]}")
            return self.workload.trajectories
        digest = output_digest(self.out)
        if self._digest is None:
            self._digest = digest
            self._warmup_failed = self._check_values()
        elif digest != self._digest:
            self.problems.append("outputs differ from the first repeat's")
            return self.workload.trajectories
        return self._warmup_failed

    def _check_values(self) -> int:
        np = self.np
        values, failed, problems = self.workload.outputs(self.out)
        for key, value in values.items():
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                problems.append(f"{key} is not finite")
        for key, expected in (self.reference or {}).items():
            want = np.asarray(expected, dtype=float)
            got = np.asarray(values.get(key, np.nan), dtype=float)
            scale = RTOL * float(np.max(np.abs(want)))
            if got.shape != want.shape or not np.all(np.abs(got - want) <= scale):
                problems.append(f"{key} differs from the reference beyond rtol {RTOL}")
        if problems:
            self.problems.extend(problems)
            return self.workload.trajectories
        return failed

    def step_ms(self, seconds: float) -> float:
        return 1e3 * seconds / (self.workload.trajectories * self.workload.steps)


def end_to_end(bench: Bench, seconds: float):
    bench.invoke()
    # A user runs one command per process: its peak is the warm-up's. Later
    # repeats only add allocator fragmentation, which varies from run to run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, steps = [], []

    def once():
        setups.append(bench.setup()[0])
        steps.append(bench.step_ms(bench.invoke()))

    repeat(once, seconds, MIN_REPEATS)
    metrics = {
        "step_ms": statistics.median(steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
    }
    return metrics, {"step_ms": steps, "setup_s": setups}


def per_layer(bench: Bench, seconds: float):
    from spans import COMMAND_SPAN, SPANS, Tracer

    _, table_mb = bench.setup()
    bench.invoke()
    tracer = Tracer()

    def traced():
        tracer.install()
        try:
            return bench.invoke(tracer.call)
        finally:
            tracer.uninstall()

    plain, timed, layers = [], [], []

    def pair():
        plain.append(bench.step_ms(bench.invoke()))
        timed.append(bench.step_ms(traced()))
        layers.append(tracer.summary())

    repeat(pair, seconds, MIN_REPEATS)

    def median_of(span, index):
        return statistics.median(layer.get(span, (0, 0))[index] for layer in layers)

    metrics = {}
    for span in [*SPANS, COMMAND_SPAN]:
        metrics[f"{span}.self_ms"] = median_of(span, 0) / 1e6
        metrics[f"{span}.calls"] = median_of(span, 1)
    steps = metrics["galerkin.step.calls"]
    metrics["galerkin.newton_iters_per_step"] = (
        metrics["galerkin.stress_force.calls"] / steps - 1 if steps else 0.0)
    metrics["basis.table_mb"] = table_mb
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(timed) / statistics.median(plain) - 1)
    missing = [s for s in bench.workload.called if not metrics[f"{s}.calls"]]
    if missing:
        raise RuntimeError(f"spans recorded no calls: {', '.join(missing)}")
    return metrics, {"step_ms": plain, "traced_step_ms": timed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        cli, config = import_package()
    except ImportError as exc:
        print(f"cannot import the package from the checkout: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # The program rejects negative seeds.
    seed = args.seed % 2 ** 32
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, seed, work, cli, config, np)
        measure = per_layer if args.trace else end_to_end
        values, samples = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "samples": {k: {"count": len(v), "values": v} for k, v in samples.items()},
        "problems": bench.problems[:20],
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("POWERLAW_SPDE_THREADS",)},
        "machine": machine_info(np),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
