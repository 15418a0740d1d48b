"""Tests of the benchmark itself: its contract file, its oracle, the
repeatability of its traced counters, and its refusal to run without the
package.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_contract_lists_every_metric_and_workload():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_hilbert_series_oracle():
    # closed torus and a boundary surface, against dimensions the
    # dense-rank oracle of the acceptance suite confirms at low degree
    assert workloads.hilbert_coefficients(1, 0, 2, 6) == [1, 4, 11, 26, 57, 120, 247]
    assert workloads.hilbert_coefficients(1, 1, 2, 4)[:3] == [1, 4, 13]
    assert workloads.hilbert_coefficients(1, 1, 3, 4) == [1, 6, 27, 104, 367]
    with pytest.raises(ValueError):
        workloads.hilbert_coefficients(2, 0, 2, 3)


def _cheap(op) -> bool:
    """Operations that take milliseconds: normal-form pairs, triples whose
    letters cancel, rewrite chains, small tables and torsion reports."""
    label = op.label
    letters = re.search(r"(\w+\d(?:\^-1)?),(\w+\d(?:\^-1)?)$", label)
    if label.startswith("triple") or label.startswith("certified triple"):
        a, b = letters.groups()
        return a + "^-1" == b or b + "^-1" == a
    if label.startswith("symp_graded_dim"):
        return label.endswith(("d=0", "d=1", "d=2", "d=3"))
    if label.startswith("degree_one_torsion"):
        return "(0,2,2)" in label
    if label.startswith("verify-theorem"):
        return label.endswith(("(1,1,2)", "(0,1,2)"))
    if label.startswith("rewrite"):
        return "(1,1,2)" in label or "(0,2,3)" in label
    return label.startswith(("pair", "certified pair"))


def _traced_pass(workload, seed):
    """One traced pass over the cheap tasks: (labels, answers, counts)."""
    answers = []

    def recording(call):
        def wrapped(ctx):
            answers.append(call(ctx))
            return answers[-1]
        return wrapped

    tasks = [
        workloads.Task(tuple(dataclasses.replace(op, call=recording(op.call)) for op in t.ops),
                       t.start)
        for t in workloads.build(workload, seed)
        if all(_cheap(op) for op in t.ops)
    ]
    samples = run.Samples()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(tasks, samples, tracer)
    finally:
        tracer.uninstall()
    assert samples.failed == samples.refused == 0, samples.failures
    summary = tracer.summary(0)
    labels = [op.label for t in tasks for op in t.ops]
    return labels, answers, (dict(summary["calls"]), summary["counters"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_repeats_answers_and_counts(workload):
    first = _traced_pass(workload, 11)
    second = _traced_pass(workload, 11)
    assert first == second
    calls, counters = first[2]
    if workload == "membership":
        assert calls["linalg.insert"] > 0
        assert counters["diagrams.certificate_terms"] > 0
        assert 0 < counters["linalg.insert.useful_ratio"] <= 1
        assert counters["linalg.rank"] > 0 and counters["linalg.columns"] > 0
    if workload == "relator-search":
        assert calls["braid.relators"] > 0
        assert "linalg.insert" not in calls
        assert counters["diagrams.nf_decided_ratio"] == 1
    if workload == "tables":
        assert counters["symplectic.words"] > 0
        assert counters["abelianization.torsion_rows"] > 0


@pytest.mark.parametrize("workload", ["membership", "relator-search"])
def test_another_seed_draws_other_inputs(workload):
    labels_a, answers_a, _ = _traced_pass(workload, 11)
    labels_b, answers_b, _ = _traced_pass(workload, 12)
    assert (labels_a, answers_a) != (labels_b, answers_b)


def test_reference_scale_follows_the_samples_around_a_timing():
    speed = reference.Speed()
    # the host runs at half the nominal speed for the first ten seconds,
    # then at the nominal speed
    speed.times = [0.5 * k for k in range(40)]
    speed.samples = [2 * reference.NOMINAL_S] * 20 + [reference.NOMINAL_S] * 20
    assert speed.scale_at(2.0, 3.0) == 0.5
    assert speed.scale_at(15.0, 15.5) == 1.0
    assert 0.5 < speed.scale_at(9.9, 10.1) < 1.0
    assert speed.scale() == pytest.approx(2 / 3)


def test_tracer_restores_every_binding():
    from surfbraid import braid, linalg, verifier

    before = (braid.relators, verifier.relators, linalg.ExactReducer.insert)
    tracer = tracing.Tracer()
    tracer.install()
    assert braid.relators is verifier.relators is not before[0]
    tracer.uninstall()
    assert (braid.relators, verifier.relators, linalg.ExactReducer.insert) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "membership", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
