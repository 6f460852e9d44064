"""Regenerate perfbench/reference.json: the outputs of every workload for
seeds 0..SEEDS-1, which run.py compares against at the tolerance RTOL of
workloads.py.

Run from the root of a source checkout, only at a commit whose outputs are
known to be right:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import HERE, ROOT, import_package, pin_threads
from workloads import WORKLOADS

SEEDS = 32


def main() -> int:
    pin_threads()
    cli, _ = import_package()
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    config_path, out = work / "config.json", work / "out"
    references = {}
    try:
        for name, workload in WORKLOADS.items():
            references[name] = {}
            for seed in range(SEEDS):
                config_path.write_text(json.dumps(workload.make_config(seed)))
                shutil.rmtree(out, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([workload.command, "--config", str(config_path),
                                     "--seed", str(seed), "--out", str(out)])
                values, failed, problems = workload.outputs(out)
                if code != 0 or failed or problems:
                    print(f"{name} seed {seed}: exit {code}, {failed} failed, "
                          f"{problems}", file=sys.stderr)
                    return 1
                references[name][str(seed)] = values
            print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    (HERE / "reference.json").write_text(json.dumps({"workloads": references}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
