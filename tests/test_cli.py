import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerlaw_spde import galerkin, verify
from powerlaw_spde.cli import main
from powerlaw_spde.config import SimulationConfig
from powerlaw_spde.constitutive import minimal_q
from powerlaw_spde.noise import FAMILIES


def write_config(tmp_path, **overrides):
    cfg = {
        "d": 2, "p": 2.0, "N": 4, "dt": 0.01, "T_end": 0.05,
        "noise_family": "linear", "K": 4, "seed": 1,
        "initial_coeffs": [1.0],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_simulate_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,energy,grad_lp_increment,stab_increment,noise_qv"
    assert len(lines) == 7  # header + n_steps + 1 rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 1.0) < 1e-12  # |v0|^2
    data = json.loads((out / "coefficients.json").read_text())
    assert len(data["coeffs"]) == 6
    assert SimulationConfig.load(out / "config.json").seed == 1


def test_simulate_bit_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "coefficients.json").read_bytes() == (out_b / "coefficients.json").read_bytes()


def test_simulate_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out_a)])
    main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out_b)])
    assert (out_a / "trajectory.csv").read_text() != (out_b / "trajectory.csv").read_text()


def test_invalid_config_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, p=0.9)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "p" in capsys.readouterr().err


@pytest.mark.parametrize("index", [0, 5])
def test_forcing_mode_index_out_of_range_exits_two(tmp_path, capsys, index):
    # N = 4: index 0 used to force the last mode, index 5 raised IndexError
    cfg = write_config(tmp_path, forcing="steady_mode", forcing_mode_index=index)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "forcing_mode_index" in capsys.readouterr().err


@pytest.mark.parametrize("override, fld", [
    ({"N": "4"}, "N"),                      # used to raise TypeError
    ({"initial_coeffs": [float("nan")]}, "initial_coeffs"),  # used to raise ValueError
])
def test_mistyped_or_non_finite_config_exits_two(tmp_path, capsys, override, fld):
    cfg = write_config(tmp_path, **override)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"'{fld}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("m", 3.0), ("initial", "single_mode"),
                                        ("initial_scale", 2.5)])
def test_removed_config_key_exits_two(tmp_path, capsys, key, value):
    # alpha = 1/m and the scaled initial_coeffs are the one spelling of each
    cfg = write_config(tmp_path, **{key: value})
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"config field '{key}': unknown configuration key" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["[]", "3", "null", "{\"N\": 4", "\xff",
                                      "[" * 10 ** 5 + "]" * 10 ** 5, None],
                         ids=["list", "number", "null", "unparsable", "not-utf8", "deep", "missing"])
def test_malformed_config_document_exits_two(tmp_path, capsys, document):
    # a top level other than an object, unparsable JSON, bytes that are not
    # UTF-8, nesting deeper than the parser's recursion limit and a missing
    # file used to end in a traceback
    path = tmp_path / "config.json"
    if document is not None:
        path.write_bytes(document.encode("latin-1"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "'config'" in capsys.readouterr().err


def runs_of(command):
    """n_traj for a command that reads it: simulate runs one trajectory."""
    return {} if command == "simulate" else {"n_traj": 2}


@pytest.mark.parametrize("command", ["simulate", "ensemble", "pressure"])
def test_grid_below_oversampling_bound_exits_two(tmp_path, capsys, command):
    # N = 12 needs M >= 5; M = 4 used to end in a ValueError traceback
    cfg = write_config(tmp_path, N=12, M=4, **runs_of(command))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "'M'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ensemble", "pressure"])
def test_additive_noise_exits_two(tmp_path, capsys, command):
    # its constant fields project to zero, so the run used to be noise-free
    cfg = write_config(tmp_path, noise_family="additive", **runs_of(command))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "'noise_family'" in capsys.readouterr().err


def test_verify_known_suite(tmp_path):
    out = tmp_path / "reports"
    assert main(["verify", "--suite", "constitutive", "--out", str(out)]) == 0
    report = json.loads((out / "verify_constitutive.json").read_text())
    assert report["passed"] is True
    assert all("tolerance" in c and "max_deviation" in c for c in report["checks"])


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("command", ["simulate", "ensemble", "pressure", "verify"])
def test_unusable_out_exits_two_before_any_run(tmp_path, capsys, call_counter, command, below):
    # --out on or below an existing file used to end in a traceback, for
    # verify only after the whole suite had run
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "x" if below else taken
    args = (["verify", "--suite", "basis"] if command == "verify" else
            [command, "--config", str(write_config(tmp_path, **runs_of(command)))])
    runs = {**call_counter(galerkin, "step"), **call_counter(verify, "run_suite")}
    assert main(args + ["--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert runs == {"step": 0, "run_suite": 0}
    assert taken.read_text() == ""


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_ensemble_outputs(tmp_path):
    cfg = write_config(tmp_path, n_traj=4)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "ensemble.json").read_text())
    assert summary["n_traj"] == 4
    assert summary["se_total"] >= 0.0
    lines = (out / "ensemble.csv").read_text().strip().splitlines()
    assert len(lines) == 5


def test_ensemble_requires_two_trajectories(tmp_path, capsys):
    cfg = write_config(tmp_path, n_traj=1)
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2


def test_ensemble_alpha_grid(tmp_path):
    cfg = write_config(tmp_path, p=1.8, n_traj=2, alpha=0.1)
    out = tmp_path / "alpha"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--alpha-grid", "0.0,0.1,1.0"]) == 0
    rows = json.loads((out / "alpha_study.json").read_text())
    assert [r["alpha"] for r in rows] == [0.0, 0.1, 1.0]
    assert (out / "alpha_study.csv").exists()


def test_ensemble_m_grid(tmp_path):
    cfg = write_config(tmp_path, p=1.8, n_traj=2, alpha=0.1)
    out = tmp_path / "m"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--m-grid", "1,10"]) == 0
    rows = json.loads((out / "m_study.json").read_text())
    assert rows[0]["m_pair"] == [1.0, 10.0]


def test_pressure_command(tmp_path):
    cfg = write_config(tmp_path, N=8, n_traj=2)
    out = tmp_path / "press"
    assert main(["pressure", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "pressure.json").read_text())
    assert report["pi_h_sup"] == 0.0
    assert report["max_abs_mean"] < 1e-10
    assert np.isfinite(report["pi_H_ratio"])


def test_linear_noise_pressure_reports_zero_stochastic_pressure(tmp_path):
    # linear noise a_k v is divergence-free: exactly 0, not round-off
    cfg = write_config(tmp_path, N=8, n_traj=2, initial_coeffs=[1.0, -0.5, 0.25, 0.5])
    out = tmp_path / "press"
    assert main(["pressure", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "pressure.json").read_text())
    assert report["pi_Phi_lhs"] == 0.0 and report["pi_Phi_ratio"] == 0.0
    assert report["pi_Phi_rhs"] > 0.0


def test_report_command(tmp_path, capsys):
    cfg = write_config(tmp_path, n_traj=2)
    out = tmp_path / "all"
    main(["ensemble", "--config", str(cfg), "--out", str(out)])
    main(["verify", "--suite", "basis", "--out", str(out)])
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ensemble.json" in text
    assert "verify_basis.json: PASS" in text


def test_report_lists_unreadable_files_and_exits_one(tmp_path, capsys):
    # a file that is not JSON, or not UTF-8, or a directory named *.json,
    # used to end the listing in a traceback
    out = tmp_path / "all"
    main(["verify", "--suite", "basis", "--out", str(out)])
    (out / "bad.json").write_text("{not json")
    (out / "latin.json").write_bytes(b"\xff")
    (out / "dir.json").mkdir()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bad.json: unreadable (Expecting property name")
    assert lines[1].startswith("dir.json: unreadable (")
    assert lines[2].startswith("latin.json: unreadable (")
    assert "verify_basis.json: PASS" in lines


def test_report_empty_directory(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1


def test_csv_floats_survive_round_trip(tmp_path):
    # %.17g formatting preserves doubles exactly
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    lines = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    data = json.loads((out / "coefficients.json").read_text())
    for line, coeffs in zip(lines, data["coeffs"]):
        energy = float(line.split(",")[1])
        assert energy == sum(c * c for c in coeffs)


# seed 0 diverges: the left-point integral of |v|^6 overflows at step 12,
# two steps before the state itself; seeds 1-3 complete
FAILING_SEED = {"N": 8, "p": 3.0, "dt": 1.0, "T_end": 20, "n_traj": 4,
                "noise_family": "linear", "initial_coeffs": [2] * 8}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ensemble_reports_failed_seed(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAILING_SEED))
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
    summary = json.loads((out / "ensemble.json").read_text())
    assert summary["partial"] is True and summary["n_traj"] == 3
    (failure,) = summary["failed_trajectories"]
    assert failure["seed"] == 0 and failure["step"] == 12
    assert failure["error"] == "step 12: non-finite diagnostics"
    assert set(failure) == {"seed", "step", "residual", "error"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ensemble_with_overflowing_diagnostics_fails(tmp_path, capsys):
    # finite coefficients whose energy integrals overflow: every trajectory
    # fails at step 0, so the ensemble cannot report moments
    cfg = write_config(tmp_path, N=4, p=3.0, T_end=0.02, n_traj=2,
                       initial_coeffs=[1e60] * 4)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
    assert "0 of 2 trajectories completed" in capsys.readouterr().err
    assert not (out / "ensemble.json").exists()


@pytest.mark.parametrize("beta", [0.0, -1e308])
def test_nonpositive_beta_exits_two(tmp_path, capsys, beta):
    # -1e308 used to report a moment of 0.0
    cfg = write_config(tmp_path, beta=beta, n_traj=2)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'beta'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_moment_exits_one(tmp_path, capsys):
    # used to exit 0 with "moment_beta_mean": Infinity and
    # "moment_beta_se": NaN, which is not JSON
    cfg = write_config(tmp_path, beta=1e308, n_traj=2)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 1
    assert "beta = 1e+308" in capsys.readouterr().err
    assert not (out / "ensemble.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pressure_reports_failed_seed(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAILING_SEED))
    out = tmp_path / "press"
    assert main(["pressure", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "pressure.json").read_text())
    assert report["partial"] is True
    assert [(f["seed"], f["step"]) for f in report["failed_trajectories"]] == [(0, 12)]
    assert np.isfinite(report["pi_H_ratio"])
    # built from seeds 1-3 alone
    cfg.write_text(json.dumps({**FAILING_SEED, "n_traj": 3}))
    clean = tmp_path / "clean"
    assert main(["pressure", "--config", str(cfg), "--seed", "1", "--out", str(clean)]) == 0
    expected = json.loads((clean / "pressure.json").read_text())
    assert "partial" not in expected
    assert {k: report[k] for k in expected} == expected


def test_clean_pressure_report_has_no_failure_keys(tmp_path):
    cfg = write_config(tmp_path, N=8, n_traj=2)
    out = tmp_path / "press"
    assert main(["pressure", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "pressure.json").read_text())
    assert "failed_trajectories" not in report and "partial" not in report


def test_negative_seed_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "'seed'" in capsys.readouterr().err


# 1e-320 is positive, but its alpha = 1/m overflows to inf
@pytest.mark.parametrize("grid", ["0,1", "1,-2", "1,nan", "1,inf", "1,x", "", "10", "1e-320,1"])
def test_bad_m_grid_exits_two(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, n_traj=2)
    code = main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "m"),
                 "--m-grid", grid])
    assert code == 2
    assert "'m_grid'" in capsys.readouterr().err


def test_bad_alpha_grid_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n_traj=2)
    code = main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--alpha-grid", "0.1,-0.2"])
    assert code == 2
    assert "'alpha_grid'" in capsys.readouterr().err


def test_alpha_and_m_grid_together_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n_traj=2)
    out = tmp_path / "both"
    code = main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--alpha-grid", "0.1,0.2", "--m-grid", "1,10"])
    assert code == 2
    assert "'m_grid'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, grid", [("--alpha-grid", "0,0.1"), ("--m-grid", "1,10")])
def test_grid_point_with_inadmissible_q_exits_two(tmp_path, capsys, flag, grid):
    # q = 2.5 < max(2p', 3) = 4 is accepted without the stabilizer; the
    # second grid point used to end in a traceback after the first one ran
    cfg = write_config(tmp_path, n_traj=2, q=2.5)
    out = tmp_path / "study"
    code = main(["ensemble", "--config", str(cfg), "--out", str(out), flag, grid])
    assert code == 2
    assert "'q'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, fld", [
    ({"N": 100000}, "N"),                      # a 213 GiB basis table
    ({"N": 10 ** 9}, "N"),                     # bounded before the modes are enumerated
    ({"T_end": 1e7, "dt": 0.01}, "T_end"),     # a 29.8 GiB coefficient history
    ({"K": 10 ** 9, "noise_family": "linear"}, "K"),  # 37 GiB of increments
])
def test_oversized_run_exits_two(tmp_path, capsys, override, fld):
    cfg = write_config(tmp_path, **override)
    start = time.perf_counter()
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"'{fld}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, fld, flags", [
    # simulate runs one trajectory and reports no moments; pressure and the
    # grid studies report no moments: each used to run and ignore the setting
    ("simulate", {"n_traj": 5}, "n_traj", []),
    ("simulate", {"beta": 3.0}, "beta", []),
    ("pressure", {"n_traj": 2, "beta": 3.0}, "beta", []),
    ("ensemble", {"n_traj": 2, "beta": 3.0}, "beta", ["--alpha-grid", "0,0.1"]),
    ("ensemble", {"n_traj": 2, "beta": 3.0}, "beta", ["--m-grid", "1,10"]),
])
def test_unread_setting_exits_two_before_any_run(tmp_path, capsys, call_counter,
                                                 command, override, fld, flags):
    cfg = write_config(tmp_path, **override)
    runs = call_counter(galerkin, "step")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
    assert f"config field '{fld}': is not read by the {command} command" in capsys.readouterr().err
    assert runs == {"step": 0}
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pressure", "ensemble"])
def test_q_without_stabilizer_exits_two_before_any_run(tmp_path, capsys, call_counter, command):
    # at alpha = 0 nothing reads q: q = 9.0 used to write a trajectory.csv
    # byte-identical to the default's
    cfg = write_config(tmp_path, n_traj=1 if command == "simulate" else 2, q=9.0)
    runs = call_counter(galerkin, "step")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert (f"config field 'q': is not read by the {command} command with alpha = 0"
            in capsys.readouterr().err)
    assert runs == {"step": 0}
    assert not out.exists()


@pytest.mark.parametrize("flag, grid", [("--alpha-grid", "0,0.1"), ("--m-grid", "1,10")])
def test_grid_study_reads_q_at_alpha_zero(tmp_path, flag, grid):
    # each grid point sets its own alpha > 0 (or 0), so q is read
    cfg = write_config(tmp_path, n_traj=2, q=9.0)
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 flag, grid]) == 0


def test_written_config_reruns_with_the_default_q(tmp_path):
    # the written config holds q = minimal_q(p), which alpha = 0 accepts
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(write_config(tmp_path, p=1.6)),
                 "--out", str(first)]) == 0
    assert json.loads((first / "config.json").read_text())["q"] == minimal_q(1.6)
    assert main(["simulate", "--config", str(first / "config.json"), "--out", str(second)]) == 0
    for name in ("trajectory.csv", "coefficients.json", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_grid_with_one_trajectory_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n_traj=1)
    code = main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--alpha-grid", "0.1,0.2"])
    assert code == 2
    assert "'n_traj'" in capsys.readouterr().err


_GRID_ENTRY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 1000).map(str),
    st.text(alphabet="0123456789.-+eEinfa ", max_size=6),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30)
@given(seed=st.integers(-2 ** 40, 2 ** 64),
       flag=st.sampled_from(["--alpha-grid", "--m-grid"]),
       grid=st.lists(_GRID_ENTRY, min_size=1, max_size=3).map(",".join),
       q=st.one_of(st.none(), st.floats(2.0, 6.0)),
       alpha=st.sampled_from([0.0, 0.1]))
def test_ensemble_cli_boundary_never_raises(tmp_path_factory, seed, flag, grid, q, alpha):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(tmp, T_end=0.02, n_traj=2, alpha=alpha, q=q)
    # flag=value: a grid that starts with "-" is a value, not an option
    code = main(["ensemble", "--config", str(cfg), f"--seed={seed}",
                 "--out", str(tmp / "out"), f"{flag}={grid}"])
    assert code in (0, 1, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30)
@given(command=st.sampled_from(["simulate", "pressure"]),
       d=st.sampled_from([2, 3]),
       N=st.integers(1, 8),
       M=st.one_of(st.none(), st.integers(-1, 12)),
       family=st.sampled_from([None, *FAMILIES]),
       scheme=st.sampled_from(["euler_maruyama", "semi_implicit"]),
       p=st.floats(1.1, 4.0),
       alpha=st.sampled_from([0.0, 0.1, 2.0]),
       forcing=st.sampled_from(["zero", "steady_mode"]),
       dt=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
       steps=st.integers(1, 4),
       n_traj=st.integers(1, 3),
       initial=st.lists(st.floats(-10.0, 10.0), max_size=10))
def test_run_commands_never_raise(tmp_path_factory, command, d, N, M, family, scheme,
                                  p, alpha, forcing, dt, steps, n_traj, initial):
    tmp = tmp_path_factory.mktemp("fuzz")
    # K is read only with a noise family, n_traj only by pressure
    cfg = write_config(tmp, d=d, N=N, M=M, noise_family=family, scheme=scheme, p=p,
                       alpha=alpha, forcing=forcing, dt=dt, T_end=steps * dt,
                       K=16 if family is None else 4,
                       n_traj=1 if command == "simulate" else n_traj, initial_coeffs=initial)
    code = main([command, "--config", str(cfg), "--out", str(tmp / "out")])
    assert code in (0, 1, 2)
