"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python -m pytest -q bench/tests

Jobs run at workloads.TEST_ORDER, except the sizing test, which runs one
traced job per workload at its traced order (about a minute).
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def bench(capsys, monkeypatch, workload, trace, seed=0, small=True, seconds=3):
    if small:
        w = workloads.WORKLOADS[workload]
        monkeypatch.setitem(workloads.WORKLOADS, workload, dataclasses.replace(
            w, order=workloads.TEST_ORDER, trace_order=workloads.TEST_ORDER))
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    record_name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(run.OUT_DIR, record_name), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record, out


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, monkeypatch, workload, trace):
    result, record, lines = bench(capsys, monkeypatch, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        assert any("fail_ratio=0.0000 ratio" in line for line in lines)
    assert record["fail_ratio"] == 0
    assert set(record["machine"]) == {"python", "nproc", "cpu"}
    assert record["seed"] == 0 and record["sample_counts"]


def tamper(edit):
    """A spawn that runs the real job, then edits its artifact."""
    real = run.spawn

    def spawn(argv, stderr_path):
        job = real(argv, stderr_path)
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="utf-8") as fh:
                artifact = json.load(fh)
            edit(artifact)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(artifact, fh)
        return job

    return spawn


def wrong_status(artifact):
    artifact["reports"][-1]["status"] = "not-applicable"


def shrunk_range(artifact):
    artifact["reports"][0]["range"][1] -= 1


def tampered_table(artifact):
    artifact["generated"]["polys"][5]["coeffs"][0] = "12345"


@pytest.mark.parametrize("workload, edit", [
    ("ml-verify", wrong_status),
    ("ml-verify", shrunk_range),
    ("hyp-verify", shrunk_range),
    ("laguerre-report", wrong_status),
    ("laguerre-report", tampered_table),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_a_wrong_artifact_counts_as_a_failed_job(capsys, monkeypatch, workload, edit, trace):
    monkeypatch.setattr(run, "spawn", tamper(edit))
    result, record, lines = bench(capsys, monkeypatch, workload, trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert record["fail_ratio"] == 1
    assert any(line.startswith("FAILED: ") for line in lines)


def test_a_failing_exit_code_counts_as_a_failed_job(capsys, monkeypatch):
    real = run.spawn

    def spawn(argv, stderr_path):
        job = real(argv, stderr_path)
        job.returncode = 1
        return job

    monkeypatch.setattr(run, "spawn", spawn)
    result, record, _ = bench(capsys, monkeypatch, "hyp-verify", 0)
    assert result["failed"] == result["attempted"] and not result["correct"]


COUNTS = ("calls", "coeff_products", "distinct_ratio", "pn_bits", "builds")


def counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.split(".")[-1] in COUNTS}


@pytest.mark.parametrize("workload", NAMES)
def test_counters_repeat_exactly(capsys, monkeypatch, workload):
    first, _, _ = bench(capsys, monkeypatch, workload, 1)
    second, _, _ = bench(capsys, monkeypatch, workload, 1)
    assert counters(first) == counters(second)
    assert counters(first)


def test_sizing_counts_at_the_traced_order(capsys, monkeypatch):
    ml = counters(bench(capsys, monkeypatch, "ml-verify", 1, small=False)[0])
    assert ml["families.ml_by_recurrence.calls"] == 11
    assert ml["identities.ratio_power_closed_form.calls"] == 660
    assert ml["identities.ratio_power_closed_form.distinct_ratio"] == 33 / 660
    assert ml["polynomials.shift.calls"] == 8756
    assert ml["polynomials.mul.calls"] == 175939
    assert ml["polynomials.mul.coeff_products"] == 3511066
    lag = counters(bench(capsys, monkeypatch, "laguerre-report", 1, small=False)[0])
    assert lag["polynomials.shift.calls"] == 0
    assert lag["identities.ratio_power_closed_form.calls"] == 0
    hyp = counters(bench(capsys, monkeypatch, "hyp-verify", 1, small=False)[0])
    assert hyp["polynomials.mul.coeff_products"] == 0
    assert hyp["series.calls"] == 0


def test_the_default_seed_runs_the_reference_configs():
    argv = {name: w.argv(w.params(0), w.trace_order) for name, w in workloads.WORKLOADS.items()}
    assert {name: w.order for name, w in workloads.WORKLOADS.items()} == \
        {"ml-verify": 16, "laguerre-report": 48, "hyp-verify": 80}
    assert argv == {
        "ml-verify": "verify --family ml --d 2 --alpha 1 --beta -1 --c 1 --order 32".split(),
        "laguerre-report": ("report --family laguerre --d 3 --a 1/2 --beta-exp -3/2 "
                            "--theta 1/7 --b 1,1/3,1/5 --order 64").split(),
        "hyp-verify": ("verify --family hyp-laguerre --d 2 --alphavec 1/2,1/3 --beta 1/4 "
                       "--l 2 --order 96").split(),
    }


def test_seeds_draw_from_the_pool_inside_the_domains():
    for w in workloads.WORKLOADS.values():
        drawn = {w.params(seed) for seed in range(64)}
        assert drawn == set(w.pool)
        assert w.params(7) == w.params(7)
        for params in w.pool:
            values = dict(params)
            if w.family == "ml":
                assert values["alpha"] != values["beta"] and values["alpha"] != "0"
            elif w.family == "laguerre":
                assert values["a"] != "0"
            else:
                for v in values["alphavec"].split(",") + [values["beta"]]:
                    assert "/" in v or not v.startswith("-"), v


def test_report_ids_map_to_metric_names():
    assert spans.metric_id("de1:k=1") == "de1-k1"
    assert spans.metric_id("d-orthogonality") == "d-orthogonality"


def test_without_sources_it_fails_without_a_result():
    bare = os.path.join(run.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, *CONTRACT["command"][1:], "--workload", "hyp-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
