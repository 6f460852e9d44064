"""The summary of tools/bench_pairs.py on fixed numbers; no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01}]


def _pairs(step, ok):
    return [{"parent": {"step_ms": sp, "ok_frac": op}, "change": {"step_ms": sc, "ok_frac": oc}}
            for (sp, sc), (op, oc) in zip(step, ok)]


def test_quartiles_of_one_and_of_five_values():
    assert bench_pairs.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_summary_counts_the_pairs_the_change_won():
    step = [(10.0, 8.0), (9.0, 9.5), (11.0, 7.0), (12.0, 12.0)]
    ok = [(1.0, 1.0), (0.5, 1.0), (1.0, 0.75), (1.0, 1.0)]
    summary = bench_pairs.summarize(_pairs(step, ok), METRICS)
    step_ms = summary["step_ms"]
    # lower is better, and the tie (12, 12) counts for neither side
    assert step_ms["change_wins"] == 2 and step_ms["pairs"] == 4
    assert step_ms["parent"] == {"q1": 9.75, "median": 10.5, "q3": 11.25}
    assert step_ms["change"] == {"q1": 7.75, "median": 8.75, "q3": 10.125}
    assert step_ms["unit"] == "ms" and step_ms["better"] == "lower"
    # higher is better
    assert summary["ok_frac"]["change_wins"] == 1
    assert summary["ok_frac"]["change"]["median"] == pytest.approx(1.0)


def test_summary_reports_a_resolved_gain():
    # every change run beats every parent run on step_ms: a 45% gain, read
    # off as -worse_by; on ok_frac the tie is no gain
    step = [(10.0, 6.0), (9.0, 5.5), (11.0, 6.5), (12.0, 5.0)]
    ok = [(1.0, 1.0)] * 4
    summary = bench_pairs.summarize(_pairs(step, ok), METRICS)
    assert summary["step_ms"]["all_better"] is True
    assert -summary["step_ms"]["worse_by"] == pytest.approx((10.5 - 5.75) / 10.5)
    assert summary["ok_frac"]["all_better"] is False and summary["ok_frac"]["worse_by"] == 0.0
    # one change run slower than the fastest parent run: no longer all better
    step[0] = (10.0, 9.5)
    summary = bench_pairs.summarize(_pairs(step, ok), METRICS)
    assert summary["step_ms"]["all_better"] is False
    assert summary["step_ms"]["change_wins"] == 4


@pytest.mark.parametrize("step, ok, worse_by, beyond, unresolved", [
    # step_ms 30% slower than a parent with no spread: beyond its 25% bound
    ([(10.0, 13.0)] * 4, [(1.0, 1.0)] * 4, (0.3, 0.0), (True, False), (False, False)),
    # a parent spread of (13 - 7) / 10 = 60% cannot resolve a 10% gain, and
    # ok_frac 2% lower is beyond its 1% bound
    ([(4.0, 9.0), (8.0, 9.0), (12.0, 9.0), (16.0, 9.0)], [(1.0, 0.98)] * 4,
     (-0.1, 0.02), (False, True), (True, False)),
    # the same spread, but every change run beats every parent run
    ([(4.0, 3.0), (8.0, 3.0), (12.0, 3.0), (16.0, 3.0)], [(1.0, 1.0)] * 4,
     (-0.7, 0.0), (False, False), (False, False)),
])
def test_summary_says_whether_the_change_got_worse(step, ok, worse_by, beyond, unresolved):
    summary = bench_pairs.summarize(_pairs(step, ok), METRICS)
    for name, expected, exceeds, open_ in zip(("step_ms", "ok_frac"), worse_by, beyond, unresolved):
        assert summary[name]["worse_by"] == pytest.approx(expected)
        assert summary[name]["beyond_bound"] is exceeds
        assert summary[name]["unresolved"] is open_


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_no_pairs_is_refused_before_any_run(tmp_path, monkeypatch, pairs):
    # zero pairs used to write an empty report and exit 0, which read as a
    # clean comparison
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(_PATH.parents[1]), "--workloads", "pressure-2d",
                          "--pairs", pairs, "--out", str(out)])
    assert exit_.value.code == 2
    assert runs == [] and not out.exists()


def test_an_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # a typo in the second name must not wait for the first workload's
    # pairs to run before it shows up as an incorrect run
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(_PATH.parents[1]), "--workloads", "simulate-si-3d",
                          "pressure_2d", "--out", str(out)])
    assert exit_.value.code == 2
    assert "'pressure_2d'" in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_every_benchmark_workload_is_known():
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    known = bench_pairs.workload_names()
    assert [w["name"] for w in spec["workloads"] if w["name"] not in known] == []
    assert "ensemble-em-2d" in known  # ungated, but bench_pairs runs it too
